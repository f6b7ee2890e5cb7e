#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <random>

#include "core/trigger_manager.h"
#include "db/sql.h"
#include "expr/eval.h"

namespace tman {
namespace {

class TriggerManagerTest : public ::testing::Test {
 protected:
  void SetUp() override { Reset(TriggerManagerOptions()); }

  void Reset(TriggerManagerOptions options) {
    tman_.reset();
    db_ = std::make_unique<Database>();
    ASSERT_TRUE(db_->CreateTable("emp", Schema({{"name", DataType::kVarchar},
                                                {"salary", DataType::kFloat},
                                                {"dept", DataType::kInt}}))
                    .ok());
    tman_ = std::make_unique<TriggerManager>(db_.get(), options);
    ASSERT_TRUE(tman_->Open().ok());
    ASSERT_TRUE(tman_->DefineLocalTableSource("emp").ok());
  }

  void Exec(const std::string& cmd) {
    auto r = tman_->ExecuteCommand(cmd);
    ASSERT_TRUE(r.ok()) << cmd << " -> " << r.status().ToString();
  }

  void InsertEmp(const std::string& name, double salary, int64_t dept) {
    ASSERT_TRUE(db_->Insert("emp", Tuple({Value::String(name),
                                          Value::Float(salary),
                                          Value::Int(dept)}))
                    .ok());
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<TriggerManager> tman_;
};

TEST_F(TriggerManagerTest, EndToEndRaiseEvent) {
  Exec("create trigger bigSalary from emp on insert "
       "when emp.salary > 80000 do raise event BigHire(emp.name)");

  InsertEmp("Bob", 90000, 1);
  InsertEmp("Carl", 20000, 1);
  ASSERT_TRUE(tman_->ProcessPending().ok());

  auto events = tman_->events().History();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "BigHire");
  ASSERT_EQ(events[0].args.size(), 1u);
  EXPECT_EQ(events[0].args[0].as_string(), "Bob");
  EXPECT_EQ(tman_->stats().rule_firings, 1u);
}

TEST_F(TriggerManagerTest, PaperExampleUpdateFred) {
  InsertEmp("Bob", 50000, 1);
  InsertEmp("Fred", 10000, 1);
  ASSERT_TRUE(tman_->ProcessPending().ok());  // drain capture noise

  Exec("create trigger updateFred from emp on update(emp.salary) "
       "when emp.name = 'Bob' "
       "do execSQL 'update emp set salary=:NEW.emp.salary where "
       "emp.name=''Fred'''");

  // Raise Bob's salary; the trigger mirrors it onto Fred.
  auto r = ExecuteSql(db_.get(), "UPDATE emp SET salary = 60000 "
                                 "WHERE name = 'Bob'");
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(tman_->ProcessPending().ok());

  auto fred = ExecuteSql(db_.get(),
                         "SELECT salary FROM emp WHERE name = 'Fred'");
  ASSERT_TRUE(fred.ok());
  ASSERT_EQ(fred->rows.size(), 1u);
  EXPECT_DOUBLE_EQ(fred->rows[0].at(0).as_float(), 60000);
}

TEST_F(TriggerManagerTest, UpdateColumnFilterEndToEnd) {
  Exec("create trigger salaryWatch from emp on update(emp.salary) "
       "do raise event SalaryChanged(emp.name)");
  InsertEmp("Ann", 100, 1);
  ASSERT_TRUE(tman_->ProcessPending().ok());
  EXPECT_EQ(tman_->events().num_raised(), 0u);  // insert is not update

  // Changing dept only: no firing.
  ASSERT_TRUE(
      ExecuteSql(db_.get(), "UPDATE emp SET dept = 2 WHERE name = 'Ann'")
          .ok());
  ASSERT_TRUE(tman_->ProcessPending().ok());
  EXPECT_EQ(tman_->events().num_raised(), 0u);

  // Changing salary: fires.
  ASSERT_TRUE(
      ExecuteSql(db_.get(), "UPDATE emp SET salary = 200 WHERE name = 'Ann'")
          .ok());
  ASSERT_TRUE(tman_->ProcessPending().ok());
  EXPECT_EQ(tman_->events().num_raised(), 1u);
}

TEST_F(TriggerManagerTest, OldMacroInExecSqlAction) {
  ASSERT_TRUE(db_->CreateTable("audit", Schema({{"who", DataType::kVarchar},
                                                {"before", DataType::kFloat},
                                                {"after", DataType::kFloat}}))
                  .ok());
  InsertEmp("Bob", 100, 1);
  ASSERT_TRUE(tman_->ProcessPending().ok());
  Exec("create trigger auditRaise from emp on update(emp.salary) "
       "do execSQL 'insert into audit values (:NEW.emp.name, "
       ":OLD.emp.salary, :NEW.emp.salary)'");
  ASSERT_TRUE(
      ExecuteSql(db_.get(), "UPDATE emp SET salary = 150 WHERE name = 'Bob'")
          .ok());
  ASSERT_TRUE(tman_->ProcessPending().ok());
  auto rows = ExecuteSql(db_.get(), "SELECT * FROM audit");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0].at(0).as_string(), "Bob");
  EXPECT_DOUBLE_EQ(rows->rows[0].at(1).as_float(), 100);
  EXPECT_DOUBLE_EQ(rows->rows[0].at(2).as_float(), 150);
}

TEST_F(TriggerManagerTest, DeleteEventTrigger) {
  Exec("create trigger onGone from emp on delete from emp "
       "do raise event Gone(emp.name)");
  InsertEmp("Zed", 1, 1);
  ASSERT_TRUE(tman_->ProcessPending().ok());
  EXPECT_EQ(tman_->events().num_raised(), 0u);
  ASSERT_TRUE(
      ExecuteSql(db_.get(), "DELETE FROM emp WHERE name = 'Zed'").ok());
  ASSERT_TRUE(tman_->ProcessPending().ok());
  auto events = tman_->events().History();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "Gone");
  EXPECT_EQ(events[0].args[0].as_string(), "Zed");
}

TEST_F(TriggerManagerTest, EnableDisableTrigger) {
  Exec("create trigger t from emp on insert do raise event E(emp.name)");
  Exec("disable trigger t");
  InsertEmp("A", 1, 1);
  ASSERT_TRUE(tman_->ProcessPending().ok());
  EXPECT_EQ(tman_->events().num_raised(), 0u);
  Exec("enable trigger t");
  InsertEmp("B", 1, 1);
  ASSERT_TRUE(tman_->ProcessPending().ok());
  EXPECT_EQ(tman_->events().num_raised(), 1u);
}

TEST_F(TriggerManagerTest, TriggerSetsDisableMembers) {
  Exec("create trigger set batch 'batch triggers'");
  Exec("create trigger t1 in batch from emp on insert do raise event E()");
  Exec("create trigger t2 from emp on insert do raise event F()");
  Exec("disable trigger set batch");
  InsertEmp("A", 1, 1);
  ASSERT_TRUE(tman_->ProcessPending().ok());
  auto events = tman_->events().History();
  ASSERT_EQ(events.size(), 1u);  // only t2 (default set) fired
  EXPECT_EQ(events[0].name, "F");
}

TEST_F(TriggerManagerTest, DropTriggerStopsFiring) {
  Exec("create trigger t from emp on insert do raise event E()");
  InsertEmp("A", 1, 1);
  ASSERT_TRUE(tman_->ProcessPending().ok());
  EXPECT_EQ(tman_->events().num_raised(), 1u);
  Exec("drop trigger t");
  InsertEmp("B", 1, 1);
  ASSERT_TRUE(tman_->ProcessPending().ok());
  EXPECT_EQ(tman_->events().num_raised(), 1u);
  EXPECT_EQ(tman_->predicate_index().stats().num_predicates, 0u);
}

TEST_F(TriggerManagerTest, DisabledTriggerSetStaysDisabledAfterReopen) {
  Exec("create trigger set batch 'batch triggers'");
  Exec("create trigger t1 in batch from emp on insert do raise event E()");
  Exec("disable trigger set batch");
  tman_.reset();

  // The set's catalog row says disabled; a new instance must honour it.
  tman_ = std::make_unique<TriggerManager>(db_.get());
  ASSERT_TRUE(tman_->Open().ok());
  InsertEmp("A", 1, 1);
  ASSERT_TRUE(tman_->ProcessPending().ok());
  EXPECT_EQ(tman_->events().num_raised(), 0u);

  Exec("enable trigger set batch");
  InsertEmp("B", 1, 1);
  ASSERT_TRUE(tman_->ProcessPending().ok());
  EXPECT_EQ(tman_->events().num_raised(), 1u);
}

TEST_F(TriggerManagerTest, DisabledTriggerStaysDisabledAfterReopen) {
  Exec("create trigger t from emp on insert do raise event E()");
  Exec("disable trigger t");
  tman_.reset();
  tman_ = std::make_unique<TriggerManager>(db_.get());
  ASSERT_TRUE(tman_->Open().ok());
  InsertEmp("A", 1, 1);
  ASSERT_TRUE(tman_->ProcessPending().ok());
  EXPECT_EQ(tman_->events().num_raised(), 0u);
  Exec("enable trigger t");
  InsertEmp("B", 1, 1);
  ASSERT_TRUE(tman_->ProcessPending().ok());
  EXPECT_EQ(tman_->events().num_raised(), 1u);
}

TEST_F(TriggerManagerTest, EnabledStateReachesPinnedRuntimes) {
  // The fire path reads enabled state from the runtime it pinned, so a
  // disable, a set disable or a drop must reach a runtime that was pinned
  // before the command ran.
  Exec("create trigger set batch 'batch triggers'");
  Exec("create trigger t in batch from emp on insert do raise event E()");
  auto pinned = tman_->PinTrigger("t");
  ASSERT_TRUE(pinned.ok());
  EXPECT_TRUE((*pinned)->enabled());
  Exec("disable trigger t");
  EXPECT_FALSE((*pinned)->enabled());
  Exec("enable trigger t");
  EXPECT_TRUE((*pinned)->enabled());
  Exec("disable trigger set batch");
  EXPECT_FALSE((*pinned)->enabled());
  Exec("enable trigger set batch");
  EXPECT_TRUE((*pinned)->enabled());
  Exec("drop trigger t");
  EXPECT_FALSE((*pinned)->enabled());
  // A new trigger under the old name gets fresh flags.
  Exec("create trigger t in batch from emp on insert do raise event E()");
  EXPECT_FALSE((*pinned)->enabled());
  auto fresh = tman_->PinTrigger("t");
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE((*fresh)->enabled());
}

TEST_F(TriggerManagerTest, DisabledStateSurvivesCacheEviction) {
  TriggerManagerOptions options;
  options.trigger_cache_capacity = 2;  // tiny: constant eviction
  Reset(options);
  for (int i = 0; i < 6; ++i) {
    Exec("create trigger t" + std::to_string(i) +
         " from emp on insert when emp.dept = " + std::to_string(i) +
         " do raise event E" + std::to_string(i) + "()");
  }
  Exec("disable trigger t0");
  for (int round = 0; round < 3; ++round) {
    for (int64_t d = 0; d < 6; ++d) InsertEmp("x", 1, d);
  }
  ASSERT_TRUE(tman_->ProcessPending().ok());
  EXPECT_GT(tman_->cache().stats().evictions, 0u);
  // t0 was reloaded from the catalog along the way and stayed disabled.
  EXPECT_EQ(tman_->events().num_raised(), 15u);
  for (const Event& e : tman_->events().History()) EXPECT_NE(e.name, "E0");
}

TEST_F(TriggerManagerTest, DisableWhileDriversRunStopsLaterTokens) {
  TriggerManagerOptions options;
  options.driver_config.num_drivers = 2;
  options.driver_config.period = std::chrono::milliseconds(1);
  Reset(options);
  Schema quotes({{"symbol", DataType::kVarchar}, {"price", DataType::kInt}});
  auto src = tman_->DefineStreamSource("quotes", quotes);
  ASSERT_TRUE(src.ok());
  Exec("create trigger q from quotes when quotes.price > 0 "
       "do raise event Q(quotes.symbol, quotes.price + 1)");
  ASSERT_TRUE(tman_->Start().ok());
  auto submit = [&](int n) {
    std::vector<UpdateDescriptor> batch;
    for (int i = 0; i < n; ++i) {
      batch.push_back(UpdateDescriptor::Insert(
          *src, Tuple({Value::String("s"), Value::Int(i + 1)})));
    }
    ASSERT_TRUE(tman_->SubmitUpdateBatch(batch).ok());
  };
  submit(100);
  tman_->Drain();
  EXPECT_EQ(tman_->events().num_raised(), 100u);
  Exec("disable trigger q");
  submit(100);
  tman_->Drain();
  EXPECT_EQ(tman_->events().num_raised(), 100u);
  Exec("enable trigger q");
  submit(100);
  tman_->Drain();
  tman_->Stop();
  EXPECT_EQ(tman_->events().num_raised(), 200u);
}

TEST_F(TriggerManagerTest, DuplicateTriggerNameRejected) {
  Exec("create trigger t from emp on insert do raise event E()");
  auto r = tman_->ExecuteCommand(
      "create trigger t from emp on insert do raise event E()");
  EXPECT_FALSE(r.ok());
}

TEST_F(TriggerManagerTest, BadTriggerLeavesNoCatalogResidue) {
  auto r = tman_->ExecuteCommand(
      "create trigger bad from emp when emp.bogus = 1 do raise event E()");
  EXPECT_FALSE(r.ok());
  // Name is reusable: the catalog row was rolled back.
  Exec("create trigger bad from emp on insert do raise event E()");
}

TEST_F(TriggerManagerTest, StreamSourceSubmitUpdate) {
  Schema quotes({{"symbol", DataType::kVarchar}, {"price", DataType::kFloat}});
  auto ds = tman_->DefineStreamSource("quotes", quotes);
  ASSERT_TRUE(ds.ok());
  Exec("create trigger alert from quotes "
       "when quotes.symbol = 'ACME' and quotes.price > 100 "
       "do raise event PriceAlert(quotes.price)");

  ASSERT_TRUE(tman_->SubmitUpdate(UpdateDescriptor::Insert(
                      *ds, Tuple({Value::String("ACME"), Value::Float(150)})))
                  .ok());
  ASSERT_TRUE(tman_->SubmitUpdate(UpdateDescriptor::Insert(
                      *ds, Tuple({Value::String("ACME"), Value::Float(50)})))
                  .ok());
  ASSERT_TRUE(tman_->SubmitUpdate(UpdateDescriptor::Insert(
                      *ds, Tuple({Value::String("XYZ"), Value::Float(500)})))
                  .ok());
  ASSERT_TRUE(tman_->ProcessPending().ok());
  ASSERT_EQ(tman_->events().num_raised(), 1u);
  EXPECT_DOUBLE_EQ(tman_->events().History()[0].args[0].as_float(), 150);
}

TEST_F(TriggerManagerTest, JoinTriggerIrisHouseAlert) {
  // Build the paper's real-estate schema as local tables.
  ASSERT_TRUE(db_->CreateTable("salesperson",
                               Schema({{"spno", DataType::kInt},
                                       {"name", DataType::kVarchar},
                                       {"phone", DataType::kVarchar}}))
                  .ok());
  ASSERT_TRUE(db_->CreateTable("house", Schema({{"hno", DataType::kInt},
                                                {"address",
                                                 DataType::kVarchar},
                                                {"price", DataType::kFloat},
                                                {"nno", DataType::kInt},
                                                {"spno", DataType::kInt}}))
                  .ok());
  ASSERT_TRUE(db_->CreateTable("represents",
                               Schema({{"spno", DataType::kInt},
                                       {"nno", DataType::kInt}}))
                  .ok());
  ASSERT_TRUE(tman_->DefineLocalTableSource("salesperson").ok());
  ASSERT_TRUE(tman_->DefineLocalTableSource("house").ok());
  ASSERT_TRUE(tman_->DefineLocalTableSource("represents").ok());

  ASSERT_TRUE(db_->Insert("salesperson",
                          Tuple({Value::Int(1), Value::String("Iris"),
                                 Value::String("555")}))
                  .ok());
  ASSERT_TRUE(
      db_->Insert("represents", Tuple({Value::Int(1), Value::Int(10)})).ok());
  ASSERT_TRUE(tman_->ProcessPending().ok());

  Exec("create trigger IrisHouseAlert on insert to house "
       "from salesperson s, house h, represents r "
       "when s.name = 'Iris' and s.spno=r.spno and r.nno=h.nno "
       "do raise event NewHouseInIrisNeighborhood(h.hno, h.address)");

  // A house in Iris's neighborhood fires the alert.
  ASSERT_TRUE(db_->Insert("house",
                          Tuple({Value::Int(7), Value::String("12 Oak"),
                                 Value::Float(250000), Value::Int(10),
                                 Value::Int(1)}))
                  .ok());
  // A house elsewhere does not.
  ASSERT_TRUE(db_->Insert("house",
                          Tuple({Value::Int(8), Value::String("9 Elm"),
                                 Value::Float(90000), Value::Int(99),
                                 Value::Int(1)}))
                  .ok());
  ASSERT_TRUE(tman_->ProcessPending().ok());

  auto events = tman_->events().History();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "NewHouseInIrisNeighborhood");
  EXPECT_EQ(events[0].args[0].as_int(), 7);
  EXPECT_EQ(events[0].args[1].as_string(), "12 Oak");

  // Tuple variables without an explicit on-event are implicitly
  // insert-or-update (§5): a new represents row that completes the join
  // for the existing house 8 fires the trigger too.
  ASSERT_TRUE(
      db_->Insert("represents", Tuple({Value::Int(1), Value::Int(99)})).ok());
  ASSERT_TRUE(tman_->ProcessPending().ok());
  EXPECT_EQ(tman_->events().num_raised(), 2u);
  EXPECT_EQ(tman_->events().History()[1].args[0].as_int(), 8);

  // And future houses in the newly represented neighborhood fire as well
  // (virtual alpha nodes read current table state).
  ASSERT_TRUE(db_->Insert("house",
                          Tuple({Value::Int(9), Value::String("3 Fir"),
                                 Value::Float(1), Value::Int(99),
                                 Value::Int(1)}))
                  .ok());
  ASSERT_TRUE(tman_->ProcessPending().ok());
  EXPECT_EQ(tman_->events().num_raised(), 3u);
}

TEST_F(TriggerManagerTest, MultiVarStreamUsesStoredMemories) {
  Schema orders({{"oid", DataType::kInt}, {"cust", DataType::kInt}});
  Schema shipments({{"oid", DataType::kInt}, {"status", DataType::kVarchar}});
  auto ds_o = tman_->DefineStreamSource("orders", orders);
  auto ds_s = tman_->DefineStreamSource("shipments", shipments);
  ASSERT_TRUE(ds_o.ok() && ds_s.ok());
  Exec("create trigger shipped from orders o, shipments s "
       "when o.oid = s.oid and s.status = 'shipped' "
       "do raise event OrderShipped(o.oid, o.cust)");

  // Order arrives first (stored in o's alpha memory), then the shipment.
  ASSERT_TRUE(tman_->SubmitUpdate(UpdateDescriptor::Insert(
                      *ds_o, Tuple({Value::Int(1), Value::Int(42)})))
                  .ok());
  ASSERT_TRUE(tman_->ProcessPending().ok());
  EXPECT_EQ(tman_->events().num_raised(), 0u);
  ASSERT_TRUE(tman_->SubmitUpdate(UpdateDescriptor::Insert(
                      *ds_s, Tuple({Value::Int(1),
                                    Value::String("shipped")})))
                  .ok());
  ASSERT_TRUE(tman_->ProcessPending().ok());
  ASSERT_EQ(tman_->events().num_raised(), 1u);
  EXPECT_EQ(tman_->events().History()[0].args[1].as_int(), 42);

  // Delete the order; a duplicate shipment no longer fires.
  ASSERT_TRUE(tman_->SubmitUpdate(UpdateDescriptor::Delete(
                      *ds_o, Tuple({Value::Int(1), Value::Int(42)})))
                  .ok());
  ASSERT_TRUE(tman_->ProcessPending().ok());
  ASSERT_TRUE(tman_->SubmitUpdate(UpdateDescriptor::Insert(
                      *ds_s, Tuple({Value::Int(1),
                                    Value::String("shipped")})))
                  .ok());
  ASSERT_TRUE(tman_->ProcessPending().ok());
  EXPECT_EQ(tman_->events().num_raised(), 1u);
}

TEST_F(TriggerManagerTest, SingleVariableCatchAllGatesFiring) {
  // A conjunct without a tuple variable goes to the catch-all list, which
  // the direct fire path tests on the token's own tuple.
  Exec("create trigger never from emp when emp.salary > 0 and 1 = 2 "
       "do raise event Never(emp.name)");
  Exec("create trigger always from emp when emp.salary > 0 and 1 = 1 "
       "do raise event Always(emp.name)");
  ASSERT_EQ(tman_->PinTrigger("never").value()->graph.catch_all().size(), 1u);
  InsertEmp("Bob", 10, 1);
  ASSERT_TRUE(tman_->ProcessPending().ok());
  auto events = tman_->events().History();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "Always");
}

TEST_F(TriggerManagerTest, MaintenancePassPinsOnlyStatefulTriggers) {
  // ticks feeds a join and a selection trigger. The maintenance pass
  // pins neither: the join's match only decides whether a tick enters
  // the shared store. Each is pinned once per firing match.
  for (uint32_t batch_size : {1u, 64u}) {
    SCOPED_TRACE("batch_size=" + std::to_string(batch_size));
    TriggerManagerOptions options;
    options.batch_size = batch_size;
    Reset(options);
    Schema schema({{"k", DataType::kInt}, {"v", DataType::kInt}});
    auto ticks = tman_->DefineStreamSource("ticks", schema);
    auto marks = tman_->DefineStreamSource("marks", schema);
    ASSERT_TRUE(ticks.ok() && marks.ok());
    Exec("create trigger pairs from ticks t, marks m when t.k = m.k "
         "do raise event Pair(t.k)");
    Exec("create trigger big from ticks when ticks.v > 5 "
         "do raise event Big(ticks.v)");
    auto tick_batch = [&] {
      std::vector<UpdateDescriptor> batch;
      for (int i = 0; i < 10; ++i) {
        batch.push_back(UpdateDescriptor::Insert(
            *ticks, Tuple({Value::Int(i), Value::Int(i)})));
      }
      return batch;
    };
    auto pins = [&] {
      const TriggerCacheStats s = tman_->stats().cache;
      return s.hits + s.misses;
    };
    uint64_t before = pins();
    ASSERT_TRUE(tman_->SubmitUpdateBatch(tick_batch()).ok());
    ASSERT_TRUE(tman_->ProcessPending().ok());
    // 10 ticks x 1 join fire pin + 4 ticks with v > 5 x 1 selection pin.
    EXPECT_EQ(pins() - before, 14u);
    EXPECT_EQ(tman_->events().num_raised(), 4u);
    EXPECT_EQ(tman_->stats().stream_memory_tuples, 10u);

    // A group-by trigger on ticks is still pinned by the maintenance pass,
    // once per tick, to apply its delta (every tick opens a group, so
    // each fires once); its fire-pass match pins it once more and is
    // skipped.
    Exec("create trigger groups from ticks group by ticks.k "
         "having count(ticks.k) > 0 do raise event Group(ticks.k)");
    before = pins();
    ASSERT_TRUE(tman_->SubmitUpdateBatch(tick_batch()).ok());
    ASSERT_TRUE(tman_->ProcessPending().ok());
    EXPECT_EQ(pins() - before, 14u + 10u + 10u);
    EXPECT_EQ(tman_->events().num_raised(), 4u + 4u + 10u);
  }
}

TEST_F(TriggerManagerTest, AsyncDriversProcessUpdates) {
  TriggerManagerOptions options;
  options.driver_config.num_drivers = 2;
  options.driver_config.period = std::chrono::milliseconds(5);
  Reset(options);
  Exec("create trigger t from emp on insert when emp.dept = 1 "
       "do raise event E(emp.name)");
  ASSERT_TRUE(tman_->Start().ok());
  for (int i = 0; i < 200; ++i) {
    InsertEmp("e" + std::to_string(i), 1, i % 2);
  }
  tman_->Drain();
  tman_->Stop();
  EXPECT_EQ(tman_->events().num_raised(), 100u);
}

TEST_F(TriggerManagerTest, ConditionPartitionsCoverAllTriggers) {
  TriggerManagerOptions options;
  options.condition_partitions = 4;
  Reset(options);
  for (int i = 0; i < 10; ++i) {
    Exec("create trigger t" + std::to_string(i) +
         " from emp on insert when emp.dept = 1 do raise event E()");
  }
  InsertEmp("x", 1, 1);
  ASSERT_TRUE(tman_->ProcessPending().ok());
  EXPECT_EQ(tman_->events().num_raised(), 10u);  // exactly once each
}

TEST_F(TriggerManagerTest, ConcurrentActionsRunAsTasks) {
  TriggerManagerOptions options;
  options.concurrent_actions = true;
  Reset(options);
  Exec("create trigger t from emp on insert do raise event E(emp.name)");
  InsertEmp("x", 1, 1);
  ASSERT_TRUE(tman_->ProcessPending().ok());
  EXPECT_EQ(tman_->events().num_raised(), 1u);
}

TEST_F(TriggerManagerTest, DurableWalModeWorks) {
  TriggerManagerOptions options;
  options.durable_wal = true;
  Reset(options);
  Exec("create trigger t from emp on insert do raise event E()");
  InsertEmp("x", 1, 1);
  ASSERT_TRUE(tman_->ProcessPending().ok());
  EXPECT_EQ(tman_->events().num_raised(), 1u);
}

TEST_F(TriggerManagerTest, TriggersSurviveReopen) {
  Exec("create trigger t from emp on insert when emp.dept = 7 "
       "do raise event E(emp.name)");
  tman_.reset();  // shut down the first instance

  // A new TriggerMan over the same database: Open restores data sources
  // from the catalog and reloads triggers.
  tman_ = std::make_unique<TriggerManager>(db_.get());
  ASSERT_TRUE(tman_->Open().ok());
  EXPECT_EQ(tman_->predicate_index().stats().num_predicates, 1u);

  InsertEmp("back", 1, 7);
  ASSERT_TRUE(tman_->ProcessPending().ok());
  ASSERT_EQ(tman_->events().num_raised(), 1u);
  EXPECT_EQ(tman_->events().History()[0].args[0].as_string(), "back");
}

TEST_F(TriggerManagerTest, StreamSourcesSurviveReopen) {
  Schema quotes({{"symbol", DataType::kVarchar},
                 {"price", DataType::kFloat}});
  ASSERT_TRUE(tman_->DefineStreamSource("quotes", quotes).ok());
  Exec("create trigger alert from quotes when quotes.price > 100 "
       "do raise event Alert(quotes.symbol)");
  tman_.reset();

  tman_ = std::make_unique<TriggerManager>(db_.get());
  ASSERT_TRUE(tman_->Open().ok());  // restores the stream's schema too
  auto info = tman_->sources().Lookup("quotes");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->schema.num_fields(), 2u);
  ASSERT_TRUE(tman_->SubmitUpdate(UpdateDescriptor::Insert(
                      info->id,
                      Tuple({Value::String("ACME"), Value::Float(150)})))
                  .ok());
  ASSERT_TRUE(tman_->ProcessPending().ok());
  EXPECT_EQ(tman_->events().num_raised(), 1u);
}

TEST_F(TriggerManagerTest, CacheEvictionReloadsDuringFiring) {
  TriggerManagerOptions options;
  options.trigger_cache_capacity = 2;  // tiny: constant eviction
  Reset(options);
  for (int i = 0; i < 8; ++i) {
    Exec("create trigger t" + std::to_string(i) +
         " from emp on insert when emp.dept = " + std::to_string(i) +
         " do raise event E" + std::to_string(i) + "()");
  }
  for (int64_t d = 0; d < 8; ++d) {
    InsertEmp("x", 1, d);
  }
  ASSERT_TRUE(tman_->ProcessPending().ok());
  EXPECT_EQ(tman_->events().num_raised(), 8u);
  EXPECT_GT(tman_->cache().stats().evictions, 0u);
  EXPECT_GT(tman_->cache().stats().misses, 0u);
}

TEST_F(TriggerManagerTest, GroupByOverJoinsRejectedAsFutureWork) {
  ASSERT_TRUE(db_->CreateTable("dept", Schema({{"dno", DataType::kInt}}))
                  .ok());
  ASSERT_TRUE(tman_->DefineLocalTableSource("dept").ok());
  auto r = tman_->ExecuteCommand(
      "create trigger agg from emp e, dept d group by e.dept "
      "having count(e.dept) > 5 do raise event TooMany()");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotSupported);
  // having without group by is invalid.
  auto r2 = tman_->ExecuteCommand(
      "create trigger agg2 from emp having count(dept) > 5 "
      "do raise event TooMany()");
  EXPECT_FALSE(r2.ok());
}

TEST_F(TriggerManagerTest, ScriptExecution) {
  auto r = tman_->ExecuteScript(
      "create trigger set s1 'x'; "
      "create trigger a in s1 from emp on insert do raise event A(); "
      "create trigger b from emp on insert do raise event B()");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  InsertEmp("q", 1, 1);
  ASSERT_TRUE(tman_->ProcessPending().ok());
  EXPECT_EQ(tman_->events().num_raised(), 2u);
}

TEST_F(TriggerManagerTest, EventConsumersNotified) {
  Exec("create trigger t from emp on insert do raise event Ping(emp.name)");
  std::vector<std::string> received;
  uint64_t reg = tman_->events().Register("Ping", [&](const Event& e) {
    received.push_back(e.args[0].as_string());
  });
  InsertEmp("n1", 1, 1);
  ASSERT_TRUE(tman_->ProcessPending().ok());
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], "n1");
  tman_->events().Unregister(reg);
  InsertEmp("n2", 1, 1);
  ASSERT_TRUE(tman_->ProcessPending().ok());
  EXPECT_EQ(received.size(), 1u);
}

TEST_F(TriggerManagerTest, PinTriggerExposesRuntime) {
  Exec("create trigger t from emp on insert when emp.dept = 1 "
       "do raise event E()");
  auto handle = tman_->PinTrigger("t");
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ((*handle)->name, "t");
  EXPECT_EQ((*handle)->graph.nodes().size(), 1u);
  EXPECT_FALSE((*handle)->multi_variable());
  EXPECT_FALSE(tman_->PinTrigger("none").ok());
}

// ---------------------------------------------------------------------------
// Shared stream stores: one stored copy per (source, partition) must fire
// exactly what per-trigger memories fire
// ---------------------------------------------------------------------------

using EventCounts = std::map<std::string, int>;

/// A join trigger's reference: a standalone network with private
/// memories, fed through AddTuple/RemoveTuple from the trigger's install
/// on, with selections tested by the interpreter.
struct ReferenceTrigger {
  std::string name;
  std::unique_ptr<ATreatNetwork> net;

  bool Selects(size_t node, const Tuple& tuple) const {
    const ConditionGraph::Node& gnode = net->graph().nodes()[node];
    ExprPtr selection = gnode.SelectionPredicate();
    if (selection == nullptr) return true;
    Bindings b;
    b.Bind(gnode.info.var, &net->node_schema(node), &tuple);
    auto pass = EvalPredicate(selection, b);
    EXPECT_TRUE(pass.ok());
    return pass.ok() && *pass;
  }

  /// Maintenance, then firing, as the engine runs a token. Every sweep
  /// trigger raises `name(<every field of every variable>)`.
  void Apply(const UpdateDescriptor& token, EventCounts* events) const {
    const auto& nodes = net->graph().nodes();
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i].info.source_id != token.data_source) continue;
      const NetworkNodeId node = static_cast<NetworkNodeId>(i);
      if (token.op != OpCode::kInsert && Selects(i, *token.old_tuple)) {
        EXPECT_TRUE(net->RemoveTuple(node, *token.old_tuple).ok());
      }
      if (token.op != OpCode::kDelete && Selects(i, *token.new_tuple)) {
        EXPECT_TRUE(net->AddTuple(node, *token.new_tuple).ok());
      }
    }
    if (token.op == OpCode::kDelete) return;
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i].info.source_id != token.data_source ||
          !Selects(i, *token.new_tuple)) {
        continue;
      }
      EXPECT_TRUE(net->MatchJoins(static_cast<NetworkNodeId>(i),
                                  *token.new_tuple,
                                  [&](const std::vector<Tuple>& row) {
                                    Event e{name, {}};
                                    for (const Tuple& t : row) {
                                      for (const Value& v : t.values()) {
                                        e.args.push_back(v);
                                      }
                                    }
                                    ++(*events)[e.ToString()];
                                  })
                      .ok());
    }
  }
};

struct StoreSweepResult {
  EventCounts engine;
  EventCounts reference;
  TriggerCacheStats cache;
};

/// A seeded sweep of inserts, deletes and updates over two stream
/// sources, with duplicate tuples, a self-join, a non-equijoin and join
/// triggers created and dropped between groups.
StoreSweepResult RunStoreSweep(TriggerManagerOptions options) {
  StoreSweepResult out;
  Database db;
  TriggerManager tman(&db, options);
  EXPECT_TRUE(tman.Open().ok());
  auto r = tman.DefineStreamSource(
      "r", Schema({{"a", DataType::kInt}, {"b", DataType::kInt}}));
  auto s = tman.DefineStreamSource(
      "s", Schema({{"a", DataType::kInt}, {"c", DataType::kInt}}));
  EXPECT_TRUE(r.ok() && s.ok());
  if (!r.ok() || !s.ok()) return out;
  tman.events().Register("*",
                         [&](const Event& e) { ++out.engine[e.ToString()]; });

  const std::map<std::string, std::string> definitions = {
      {"jb", "from r x, s y when x.a = y.a and x.b > 3 "
             "do raise event jb(x.a, x.b, y.a, y.c)"},
      {"jc", "from r x, s y when x.a = y.a and y.c < 4 "
             "do raise event jc(x.a, x.b, y.a, y.c)"},
      {"jbc", "from r x, s y when x.b = y.c "
              "do raise event jbc(x.a, x.b, y.a, y.c)"},
      {"self", "from r x, r z when x.a = z.a and x.b < z.b and z.b > 1 "
               "do raise event self(x.a, x.b, z.a, z.b)"},
      {"cross", "from r x, s y when x.b > 5 and y.c > 5 and x.a <> y.a "
                "do raise event cross(x.a, x.b, y.a, y.c)"}};
  std::map<std::string, ReferenceTrigger> installed;
  auto create = [&](const std::string& name) {
    auto created = tman.ExecuteCommand("create trigger " + name + " " +
                                       definitions.at(name));
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    auto pinned = tman.PinTrigger(name);
    ASSERT_TRUE(pinned.ok());
    const ATreatNetwork& engine_net = *(*pinned)->network;
    std::vector<Schema> schemas;
    for (size_t i = 0; i < engine_net.num_nodes(); ++i) {
      schemas.push_back(engine_net.node_schema(static_cast<NetworkNodeId>(i)));
    }
    auto net = ATreatNetwork::Build(engine_net.graph(), nullptr, schemas);
    ASSERT_TRUE(net.ok());
    installed[name] = ReferenceTrigger{name, std::move(*net)};
  };
  auto drop = [&](const std::string& name) {
    ASSERT_TRUE(tman.DropTrigger(name).ok());
    installed.erase(name);
  };
  // Group index -> DDL run once every earlier group is processed.
  const std::map<int, std::function<void()>> ddl = {
      {0, [&] { create("jb"); create("jc"); create("self"); }},
      {5, [&] { create("jbc"); create("cross"); }},
      {9, [&] { drop("jb"); }},
      {13, [&] { create("jb"); drop("self"); }},
      {16, [&] { drop("jc"); create("self"); }}};

  std::mt19937 rng(7);
  auto draw = [&](int64_t n) { return static_cast<int64_t>(rng() % n); };
  std::vector<Tuple> live[2];
  const DataSourceId source[2] = {*r, *s};
  for (int group = 0; group < 20; ++group) {
    if (auto it = ddl.find(group); it != ddl.end()) it->second();
    std::vector<UpdateDescriptor> tokens;
    for (int i = 0; i < 40; ++i) {
      const int side = static_cast<int>(rng() % 2);
      std::vector<Tuple>& pool = live[side];
      Tuple fresh({Value::Int(draw(4)), Value::Int(draw(8))});
      const int64_t pick = draw(20);
      if (pick < 9 || pool.empty()) {
        pool.push_back(fresh);
        tokens.push_back(UpdateDescriptor::Insert(source[side], fresh));
      } else if (pick < 14) {
        const size_t victim = static_cast<size_t>(draw(
            static_cast<int64_t>(pool.size())));
        tokens.push_back(UpdateDescriptor::Update(source[side], pool[victim],
                                                  fresh));
        pool[victim] = fresh;
      } else if (pick < 19) {
        const size_t victim = static_cast<size_t>(draw(
            static_cast<int64_t>(pool.size())));
        tokens.push_back(UpdateDescriptor::Delete(source[side], pool[victim]));
        pool.erase(pool.begin() + static_cast<ptrdiff_t>(victim));
      } else {
        // A delete of a tuple that may not be live.
        tokens.push_back(UpdateDescriptor::Delete(source[side], fresh));
        auto it = std::find(pool.begin(), pool.end(), fresh);
        if (it != pool.end()) pool.erase(it);
      }
    }
    EXPECT_TRUE(tman.SubmitUpdateBatch(tokens).ok());
    EXPECT_TRUE(tman.ProcessPending().ok());
    for (const UpdateDescriptor& token : tokens) {
      for (const auto& [name, ref] : installed) {
        ref.Apply(token, &out.reference);
      }
    }
  }
  out.cache = tman.stats().cache;
  return out;
}

/// How many events each trigger raised.
std::map<std::string, int> PerTrigger(const EventCounts& events) {
  std::map<std::string, int> out;
  for (const auto& [event, n] : events) {
    out[event.substr(0, event.find('('))] += n;
  }
  return out;
}

TEST(SharedStoreTest, FiringsMatchPerTriggerMemories) {
  for (uint32_t batch_size : {1u, 64u}) {
    for (uint32_t partitions : {1u, 2u}) {
      SCOPED_TRACE("batch_size=" + std::to_string(batch_size) +
                   " partitions=" + std::to_string(partitions));
      TriggerManagerOptions options;
      options.batch_size = batch_size;
      options.condition_partitions = partitions;
      StoreSweepResult result = RunStoreSweep(options);
      const auto counts = PerTrigger(result.reference);
      for (const char* name : {"jb", "jc", "jbc", "self", "cross"}) {
        EXPECT_GT(counts.count(name) ? counts.at(name) : 0, 20) << name;
      }
      EXPECT_EQ(result.engine, result.reference);
    }
  }
}

TEST(SharedStoreTest, EvictedJoinTriggersKeepTheirMemories) {
  TriggerManagerOptions options;
  const StoreSweepResult resident = RunStoreSweep(options);
  EXPECT_EQ(resident.cache.evictions, 0u);
  options.trigger_cache_capacity = 2;
  const StoreSweepResult evicted = RunStoreSweep(options);
  EXPECT_GT(evicted.cache.evictions, 100u);
  EXPECT_EQ(evicted.engine, resident.engine);
  EXPECT_EQ(evicted.engine, evicted.reference);
}

TEST(SharedStoreTest, DroppingJoinTriggersShrinksTheStore) {
  for (uint32_t partitions : {1u, 2u}) {
    SCOPED_TRACE("partitions=" + std::to_string(partitions));
    Database db;
    TriggerManagerOptions options;
    options.condition_partitions = partitions;
    TriggerManager tman(&db, options);
    ASSERT_TRUE(tman.Open().ok());
    Schema schema({{"a", DataType::kInt}, {"b", DataType::kInt}});
    auto r = tman.DefineStreamSource("r", schema);
    auto s = tman.DefineStreamSource("s", schema);
    ASSERT_TRUE(r.ok() && s.ok());
    for (const char* cmd :
         {"create trigger lo from r x, s y when x.a = y.a and x.b < 4 "
          "do raise event lo(x.b)",
          "create trigger hi from r x, s y when x.a = y.a and x.b >= 4 "
          "do raise event hi(x.b)",
          "create trigger plain from r when r.b > 100 do raise event p()"}) {
      ASSERT_TRUE(tman.ExecuteCommand(cmd).ok()) << cmd;
    }
    std::vector<UpdateDescriptor> tokens;
    for (int64_t b = 0; b < 8; ++b) {
      tokens.push_back(
          UpdateDescriptor::Insert(*r, Tuple({Value::Int(1), Value::Int(b)})));
    }
    for (int64_t a = 0; a < 4; ++a) {
      tokens.push_back(
          UpdateDescriptor::Insert(*s, Tuple({Value::Int(a), Value::Int(0)})));
    }
    ASSERT_TRUE(tman.SubmitUpdateBatch(tokens).ok());
    ASSERT_TRUE(tman.ProcessPending().ok());
    // Every r tuple and every s tuple once — per partition, if lo and hi
    // match in different ones (each then stores its r half and every s
    // tuple).
    auto lo = tman.PinTrigger("lo");
    auto hi = tman.PinTrigger("hi");
    ASSERT_TRUE(lo.ok() && hi.ok());
    const bool split = (*lo)->id % partitions != (*hi)->id % partitions;
    EXPECT_EQ(tman.stats().stream_memory_tuples, split ? 16u : 12u);
    lo = TriggerHandle();
    hi = TriggerHandle();
    ASSERT_TRUE(tman.DropTrigger("lo").ok());
    // hi's view: the four r tuples with b >= 4, every s tuple.
    EXPECT_EQ(tman.stats().stream_memory_tuples, 8u);
    ASSERT_TRUE(tman.DropTrigger("hi").ok());
    EXPECT_EQ(tman.stats().stream_memory_tuples, 0u);
    auto text = tman.ExecuteCommand("stats");
    ASSERT_TRUE(text.ok());
    EXPECT_NE(text->find("stream_memory_tuples=0"), std::string::npos);

    // A trigger installed later never saw the earlier entries, so they
    // go with the last trigger that did.
    auto join = [&](const std::string& name) {
      ASSERT_TRUE(tman.ExecuteCommand("create trigger " + name +
                                      " from r x, s y when x.a = y.a "
                                      "do raise event " + name + "(x.b)")
                      .ok());
    };
    auto insert = [&](DataSourceId source, int64_t a, int64_t b) {
      ASSERT_TRUE(tman.SubmitUpdate(UpdateDescriptor::Insert(
                                        source, Tuple({Value::Int(a),
                                                       Value::Int(b)})))
                      .ok());
      ASSERT_TRUE(tman.ProcessPending().ok());
    };
    join("early");
    insert(*r, 1, 1);
    insert(*s, 1, 0);
    join("late");
    insert(*r, 2, 2);
    ASSERT_TRUE(tman.DropTrigger("early").ok());
    EXPECT_EQ(tman.stats().stream_memory_tuples, 1u);
    ASSERT_TRUE(tman.DropTrigger("late").ok());
    EXPECT_EQ(tman.stats().stream_memory_tuples, 0u);
  }
}

}  // namespace
}  // namespace tman
