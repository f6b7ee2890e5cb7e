#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "core/actions.h"
#include "core/trigger_manager.h"
#include "db/sql.h"
#include "parser/parser.h"

namespace tman {
namespace {

// Builds a minimal TriggerRuntime (single emp variable) plus an
// ActionContext for macro-substitution tests.
class ActionsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>();
    ASSERT_TRUE(db_->CreateTable("emp", Schema({{"name", DataType::kVarchar},
                                                {"salary", DataType::kFloat},
                                                {"dept", DataType::kInt}}))
                    .ok());
    executor_ = std::make_unique<ActionExecutor>(db_.get(), &events_);

    trigger_ = std::make_shared<TriggerRuntime>();
    trigger_->id = 1;
    trigger_->name = "t";
    std::vector<TupleVarInfo> vars = {
        {"emp", "emp", 1, OpCode::kInsertOrUpdate}};
    auto graph = ConditionGraph::Build(vars, {});
    ASSERT_TRUE(graph.ok());
    trigger_->graph = *graph;
    auto net = ATreatNetwork::Build(trigger_->graph, db_.get());
    ASSERT_TRUE(net.ok());
    trigger_->network = std::move(*net);
  }

  // The context points into the fixture's token_/binding_, which the
  // next MakeContext call overwrites.
  ActionContext MakeContext(double old_salary, double new_salary) {
    Tuple old_t({Value::String("Bob"), Value::Float(old_salary),
                 Value::Int(3)});
    Tuple new_t({Value::String("Bob"), Value::Float(new_salary),
                 Value::Int(3)});
    token_ = UpdateDescriptor::Update(1, old_t, new_t);
    binding_ = &*token_.new_tuple;
    ActionContext ctx;
    ctx.trigger = trigger_.get();
    ctx.bindings = &binding_;
    ctx.token = &token_;
    ctx.arrival_node = 0;
    return ctx;
  }

  std::string Substitute(const std::string& sql, const ActionContext& ctx) {
    auto r = executor_->SubstituteMacros(sql, ctx);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? *r : "";
  }

  std::unique_ptr<Database> db_;
  EventManager events_;
  std::unique_ptr<ActionExecutor> executor_;
  std::shared_ptr<TriggerRuntime> trigger_;
  UpdateDescriptor token_;
  const Tuple* binding_ = nullptr;
};

TEST_F(ActionsTest, QualifiedNewAndOld) {
  auto ctx = MakeContext(100, 200);
  EXPECT_EQ(Substitute("set x = :NEW.emp.salary", ctx), "set x = 200");
  EXPECT_EQ(Substitute("set x = :OLD.emp.salary", ctx), "set x = 100");
}

TEST_F(ActionsTest, UnqualifiedAttrResolved) {
  auto ctx = MakeContext(100, 200);
  EXPECT_EQ(Substitute(":NEW.salary + :OLD.salary", ctx), "200 + 100");
}

TEST_F(ActionsTest, StringValuesQuoted) {
  auto ctx = MakeContext(1, 2);
  EXPECT_EQ(Substitute("where n = :NEW.emp.name", ctx),
            "where n = 'Bob'");
}

TEST_F(ActionsTest, CaseInsensitiveMacros) {
  auto ctx = MakeContext(100, 200);
  EXPECT_EQ(Substitute(":new.emp.salary/:Old.emp.salary", ctx), "200/100");
}

TEST_F(ActionsTest, NonMacroColonsPassThrough) {
  auto ctx = MakeContext(1, 2);
  EXPECT_EQ(Substitute("a : b :: c :x", ctx), "a : b :: c :x");
  EXPECT_EQ(Substitute(":NEWT.salary", ctx), ":NEWT.salary");  // not :NEW.
}

TEST_F(ActionsTest, OldOnWrongVariableFails) {
  auto ctx = MakeContext(1, 2);
  EXPECT_FALSE(executor_->SubstituteMacros(":OLD.other.x", ctx).ok());
}

TEST_F(ActionsTest, OldWithoutOldImageFails) {
  Tuple t({Value::String("Bob"), Value::Float(5), Value::Int(3)});
  UpdateDescriptor token = UpdateDescriptor::Insert(1, t);
  const Tuple* binding = &t;
  ActionContext ctx;
  ctx.trigger = trigger_.get();
  ctx.token = &token;
  ctx.bindings = &binding;
  EXPECT_FALSE(executor_->SubstituteMacros(":OLD.emp.salary", ctx).ok());
  // :NEW still fine for inserts.
  EXPECT_TRUE(executor_->SubstituteMacros(":NEW.emp.salary", ctx).ok());
}

TEST_F(ActionsTest, UnknownAttributeFails) {
  auto ctx = MakeContext(1, 2);
  EXPECT_FALSE(executor_->SubstituteMacros(":NEW.emp.bogus", ctx).ok());
}

TEST_F(ActionsTest, ExecSqlActionRunsAgainstDatabase) {
  trigger_->cmd.action.kind = ActionKind::kExecSql;
  trigger_->cmd.action.sql =
      "insert into emp values (:NEW.emp.name, :NEW.emp.salary, 9)";
  auto ctx = MakeContext(100, 200);
  ASSERT_TRUE(executor_->Execute(ctx).ok());
  auto rows = ExecuteSql(db_.get(), "select * from emp where dept = 9");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0].at(0).as_string(), "Bob");
  EXPECT_EQ(executor_->stats().sql_statements, 1u);
}

TEST_F(ActionsTest, FailingSqlCountsAsError) {
  trigger_->cmd.action.kind = ActionKind::kExecSql;
  trigger_->cmd.action.sql = "insert into missing values (1)";
  auto ctx = MakeContext(1, 2);
  EXPECT_FALSE(executor_->Execute(ctx).ok());
  EXPECT_EQ(executor_->stats().action_errors, 1u);
}

TEST_F(ActionsTest, RaiseEventEvaluatesArgs) {
  trigger_->cmd.action.kind = ActionKind::kRaiseEvent;
  trigger_->cmd.action.event_name = "Raise";
  auto arg1 = ParseExpressionString("emp.name");
  auto arg2 = ParseExpressionString("emp.salary * 2");
  ASSERT_TRUE(arg1.ok() && arg2.ok());
  trigger_->cmd.action.event_args = {*arg1, *arg2};
  auto ctx = MakeContext(100, 200);
  ASSERT_TRUE(executor_->Execute(ctx).ok());
  ASSERT_EQ(events_.History().size(), 1u);
  Event e = events_.History()[0];
  EXPECT_EQ(e.args[0].as_string(), "Bob");
  EXPECT_DOUBLE_EQ(e.args[1].as_float(), 400);
}

// --- Compiled action arguments vs the interpreter ------------------------

// Seeded generator of `raise event` argument expressions over two tuple
// variables (e: emp, d: dept): arithmetic on mixed int/float columns,
// string builtins and concatenation, comparisons and boolean logic, NULL
// literals, division and mod by zero, and type errors (arithmetic on
// strings, length of a number).
class ArgFuzzer {
 public:
  explicit ArgFuzzer(uint32_t seed) : rng_(seed) {}

  std::string Expr(int depth) {
    if (depth <= 0 || Chance(25)) return Leaf();
    switch (Int(0, 6)) {
      case 0:
      case 1: {
        static const char* kOps[] = {"+", "-", "*", "/"};
        return "(" + Expr(depth - 1) + " " + kOps[Int(0, 3)] + " " +
               Expr(depth - 1) + ")";
      }
      case 2: {
        static const char* kCmp[] = {"=", "<>", "<", "<=", ">", ">="};
        return "(" + Expr(depth - 1) + " " + kCmp[Int(0, 5)] + " " +
               Expr(depth - 1) + ")";
      }
      case 3:
        return "(" + Expr(depth - 1) + (Chance(50) ? " and " : " or ") +
               Expr(depth - 1) + ")";
      case 4:
        return Chance(50) ? "(not " + Expr(depth - 1) + ")"
                          : "(- " + Expr(depth - 1) + ")";
      case 5: {
        static const char* kFn[] = {"abs", "length", "upper", "lower",
                                    "round"};
        return std::string(kFn[Int(0, 4)]) + "(" + Expr(depth - 1) + ")";
      }
      default:
        return "mod(" + Expr(depth - 1) + ", " + Expr(depth - 1) + ")";
    }
  }

  Tuple RandomTuple(const Schema& s) {
    std::vector<Value> vals;
    for (const Field& f : s.fields()) {
      if (Chance(15)) {
        vals.push_back(Value::Null());
        continue;
      }
      switch (f.type) {
        case DataType::kInt:
          vals.push_back(Value::Int(Int(-3, 3)));
          break;
        case DataType::kFloat:
          vals.push_back(Value::Float(static_cast<double>(Int(-4, 4)) / 2));
          break;
        default:
          vals.push_back(Value::String(Chance(50) ? "ab" : "Xy"));
      }
    }
    return Tuple(std::move(vals));
  }

 private:
  bool Chance(int percent) { return Int(0, 99) < percent; }
  int64_t Int(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(rng_);
  }

  std::string Leaf() {
    static const char* kLeaves[] = {
        "e.name", "e.salary", "e.dept", "d.dno",  "d.budget", "d.dname",
        "e.dept", "e.salary", "0",      "2",      "-3",       "1.5",
        "0.0",    "'ab'",     "null",   "d.dno",  "d.budget", "e.name"};
    return kLeaves[Int(0, 17)];
  }

  std::mt19937 rng_;
};

class CompiledActionArgsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schemas_ = {Schema({{"name", DataType::kVarchar},
                        {"salary", DataType::kFloat},
                        {"dept", DataType::kInt}}),
                Schema({{"dno", DataType::kInt},
                        {"budget", DataType::kFloat},
                        {"dname", DataType::kVarchar}})};
    trigger_ = std::make_shared<TriggerRuntime>();
    trigger_->id = 1;
    trigger_->name = "t";
    std::vector<TupleVarInfo> vars = {
        {"e", "emp_stream", 1, OpCode::kInsertOrUpdate},
        {"d", "dept_stream", 2, OpCode::kInsertOrUpdate}};
    auto graph = ConditionGraph::Build(vars, {});
    ASSERT_TRUE(graph.ok());
    trigger_->graph = *graph;
    auto net = ATreatNetwork::Build(trigger_->graph, &db_, schemas_);
    ASSERT_TRUE(net.ok()) << net.status().ToString();
    trigger_->network = std::move(*net);
    trigger_->cmd.action.kind = ActionKind::kRaiseEvent;
    trigger_->cmd.action.event_name = "F";
  }

  /// Runs the trigger's action once; returns the raised event rendered
  /// with each argument's type, or the error status rendered.
  std::string RunOnce(const ActionContext& ctx) {
    const size_t before = events_.num_raised();
    Status s = executor_.Execute(ctx);
    if (!s.ok()) {
      EXPECT_EQ(events_.num_raised(), before);
      return "error " + std::to_string(static_cast<int>(s.code())) + ": " +
             s.message();
    }
    EXPECT_EQ(events_.num_raised(), before + 1);
    return Render(events_.History().back());
  }

  static std::string Render(const Event& e) {
    std::string out = e.name + "(";
    for (const Value& v : e.args) {
      out += v.is_null() ? "null"
                         : std::string(DataTypeName(v.type())) + ":" +
                               v.ToString();
      out += ";";
    }
    return out + ")";
  }

  Database db_;
  EventManager events_;
  ActionExecutor executor_{&db_, &events_};
  std::vector<Schema> schemas_;
  std::shared_ptr<TriggerRuntime> trigger_;
};

TEST_F(CompiledActionArgsTest, CompiledArgumentsMatchInterpreter) {
  ArgFuzzer fuzz(20261018);
  size_t compiled = 0;
  size_t errors = 0;
  for (int round = 0; round < 400; ++round) {
    std::vector<ExprPtr> args;
    std::string text;
    for (int a = 0; a < 3; ++a) {
      std::string arg = fuzz.Expr(3);
      auto parsed = ParseExpressionString(arg);
      ASSERT_TRUE(parsed.ok()) << arg << ": " << parsed.status().ToString();
      args.push_back(*parsed);
      text += arg + " | ";
    }
    trigger_->cmd.action.event_args = args;
    CompileActionArgs(trigger_.get());
    ASSERT_EQ(trigger_->compiled_args.size(), args.size());
    for (const auto& program : trigger_->compiled_args) {
      if (program != nullptr) ++compiled;
    }
    auto programs = trigger_->compiled_args;
    for (int t = 0; t < 4; ++t) {
      Tuple e = fuzz.RandomTuple(schemas_[0]);
      Tuple d = fuzz.RandomTuple(schemas_[1]);
      const Tuple* bindings[] = {&e, &d};
      UpdateDescriptor token = UpdateDescriptor::Insert(1, e);
      ActionContext ctx;
      ctx.trigger = trigger_.get();
      ctx.bindings = bindings;
      ctx.token = &token;

      trigger_->compiled_args = programs;
      std::string with_programs = RunOnce(ctx);
      trigger_->compiled_args.clear();
      std::string interpreted = RunOnce(ctx);
      ASSERT_EQ(with_programs, interpreted)
          << text << "\ne=" << e.ToString() << " d=" << d.ToString();
      if (with_programs.rfind("error", 0) == 0) ++errors;
    }
  }
  // Every generated argument is well-formed over the layout, so the
  // compiler takes all of them; a good share of runs hit an error path.
  EXPECT_EQ(compiled, 400u * 3u);
  EXPECT_GT(errors, 100u);
  EXPECT_LT(errors, 1500u);
}

TEST_F(CompiledActionArgsTest, AggregateAndExecSqlActionsStayInterpreted) {
  auto arg = ParseExpressionString("e.salary + 1");
  ASSERT_TRUE(arg.ok());
  trigger_->cmd.action.event_args = {*arg};
  CompileActionArgs(trigger_.get());
  EXPECT_EQ(trigger_->compiled_args.size(), 1u);
  trigger_->cmd.group_by = {*arg};
  CompileActionArgs(trigger_.get());
  EXPECT_TRUE(trigger_->compiled_args.empty());
  trigger_->cmd.group_by.clear();
  trigger_->cmd.action.kind = ActionKind::kExecSql;
  CompileActionArgs(trigger_.get());
  EXPECT_TRUE(trigger_->compiled_args.empty());
}

TEST_F(CompiledActionArgsTest, OwnedContextOutlivesTheFiring) {
  auto a1 = ParseExpressionString("e.name + d.dname");
  auto a2 = ParseExpressionString("e.salary * d.dno - e.dept");
  ASSERT_TRUE(a1.ok() && a2.ok());
  trigger_->cmd.action.event_args = {*a1, *a2};
  CompileActionArgs(trigger_.get());

  std::string expected;
  std::unique_ptr<OwnedActionContext> owned;
  {
    // The firing's tuples and token die with this scope, as a queued
    // action task outlives the token group that fired it.
    auto e = std::make_unique<Tuple>(std::vector<Value>{
        Value::String("bob"), Value::Float(2.5), Value::Int(4)});
    auto d = std::make_unique<Tuple>(std::vector<Value>{
        Value::Int(3), Value::Float(1), Value::String("ops")});
    auto token = std::make_unique<UpdateDescriptor>(
        UpdateDescriptor::Insert(1, *e));
    const Tuple* bindings[] = {e.get(), d.get()};
    ActionContext ctx;
    ctx.trigger = trigger_.get();
    ctx.bindings = bindings;
    ctx.token = token.get();
    ctx.arrival_node = 1;
    expected = RunOnce(ctx);
    owned = std::make_unique<OwnedActionContext>(trigger_, ctx);
  }
  EXPECT_EQ(owned->context().arrival_node, 1u);
  EXPECT_EQ(RunOnce(owned->context()), expected);
  EXPECT_EQ(expected, "F(varchar:'bobops';float:3.5;)");
}

// Rule-action concurrency end to end: the same triggers and tokens raise
// the same events whether actions run inline or as queued tasks that
// outlive their token group (run under asan-ubsan, a dangling binding
// would fault here).
TEST(CompiledActionArgsManagerTest, ConcurrentActionsRaiseTheSameEvents) {
  auto run = [](bool concurrent_actions) {
    Database db;
    TriggerManagerOptions options;
    options.concurrent_actions = concurrent_actions;
    TriggerManager tman(&db, options);
    EXPECT_TRUE(tman.Open().ok());
    auto emp = tman.DefineStreamSource(
        "emp", Schema({{"name", DataType::kVarchar},
                       {"salary", DataType::kFloat},
                       {"dept", DataType::kInt}}));
    auto dept = tman.DefineStreamSource(
        "dept", Schema({{"dno", DataType::kInt},
                        {"budget", DataType::kFloat},
                        {"dname", DataType::kVarchar}}));
    EXPECT_TRUE(emp.ok() && dept.ok());
    for (const char* cmd :
         {"create trigger s from emp e when e.salary > 0 "
          "do raise event S(e.salary / e.dept, upper(e.name), e.dept * 2)",
          "create trigger j from emp e, dept d when e.dept = d.dno "
          "do raise event J(e.name + d.dname, e.salary * d.budget)"}) {
      auto r = tman.ExecuteCommand(cmd);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
    }
    ArgFuzzer fuzz(7);
    Schema dept_schema({{"dno", DataType::kInt},
                        {"budget", DataType::kFloat},
                        {"dname", DataType::kVarchar}});
    Schema emp_schema({{"name", DataType::kVarchar},
                       {"salary", DataType::kFloat},
                       {"dept", DataType::kInt}});
    for (int b = 0; b < 4; ++b) {
      std::vector<UpdateDescriptor> batch;
      for (int i = 0; i < 16; ++i) {
        if (i % 4 == 0) {
          batch.push_back(UpdateDescriptor::Insert(
              *dept, fuzz.RandomTuple(dept_schema)));
        }
        batch.push_back(
            UpdateDescriptor::Insert(*emp, fuzz.RandomTuple(emp_schema)));
      }
      EXPECT_TRUE(tman.SubmitUpdateBatch(batch).ok());
      EXPECT_TRUE(tman.ProcessPending().ok());
    }
    EXPECT_LT(tman.events().num_raised(), 1024u);  // history holds all
    std::vector<std::string> events;
    for (const Event& e : tman.events().History()) {
      events.push_back(e.ToString());
    }
    std::sort(events.begin(), events.end());
    return std::make_pair(events, tman.stats().actions);
  };
  auto [inline_events, inline_stats] = run(false);
  auto [task_events, task_stats] = run(true);
  EXPECT_GT(inline_events.size(), 20u);
  EXPECT_GT(inline_stats.action_errors, 0u);  // e.dept = 0 divides by zero
  EXPECT_EQ(task_events, inline_events);
  EXPECT_EQ(task_stats.events_raised, inline_stats.events_raised);
  EXPECT_EQ(task_stats.action_errors, inline_stats.action_errors);
}

TEST(EventManagerTest, WildcardAndHistoryBounds) {
  EventManager events(/*history_capacity=*/3);
  int wildcard_hits = 0;
  events.Register("*", [&](const Event&) { ++wildcard_hits; });
  for (int i = 0; i < 5; ++i) {
    events.Raise(Event{"E" + std::to_string(i), {}});
  }
  EXPECT_EQ(wildcard_hits, 5);
  EXPECT_EQ(events.num_raised(), 5u);
  auto history = events.History();
  ASSERT_EQ(history.size(), 3u);  // bounded
  EXPECT_EQ(history[0].name, "E2");
  EXPECT_EQ(history[2].name, "E4");
  events.ClearHistory();
  EXPECT_TRUE(events.History().empty());
}

TEST(EventManagerTest, ConsumerMatchingIsCaseInsensitive) {
  EventManager events;
  int hits = 0;
  uint64_t id = events.Register("PriceAlert", [&](const Event&) { ++hits; });
  events.Raise(Event{"pricealert", {}});
  events.Raise(Event{"PRICEALERT", {}});
  events.Raise(Event{"other", {}});
  EXPECT_EQ(hits, 2);
  events.Unregister(id);
  events.Raise(Event{"PriceAlert", {}});
  EXPECT_EQ(hits, 2);
}

}  // namespace
}  // namespace tman
