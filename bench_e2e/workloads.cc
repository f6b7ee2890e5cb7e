#include "bench_e2e/workloads.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <deque>

#include "bench_e2e/common.h"

namespace tman::e2e {
namespace {

/// The benchmark owns its input generator (splitmix64), so a change to
/// the program's own random utilities cannot change the inputs.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    state_ += 0x9e3779b97f4a7c15ULL;
    return Mix(state_);
  }
  int64_t Uniform(int64_t n) {
    return static_cast<int64_t>(Next() % static_cast<uint64_t>(n));
  }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Zipf(theta) over [0, n) by inverse CDF.
class Zipf {
 public:
  Zipf(int64_t n, double theta) : cdf_(static_cast<size_t>(n)) {
    double total = 0;
    for (int64_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf_[static_cast<size_t>(i)] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  int64_t Sample(Rng* rng) const {
    auto it = std::upper_bound(cdf_.begin(), cdf_.end(), rng->Unit());
    return std::min<int64_t>(it - cdf_.begin(),
                             static_cast<int64_t>(cdf_.size()) - 1);
  }

 private:
  std::vector<double> cdf_;
};

constexpr double kZipfTheta = 0.9;
constexpr uint64_t kStreamSalt = 0x5eed5eed00000001ULL;
constexpr uint64_t kJoinSalt = 0x10a1100000000000ULL;
constexpr uint64_t kAggSalt = 0xa99a990000000000ULL;

uint64_t SelectKey(int64_t seq, int64_t trigger) {
  return Mix(Mix(static_cast<uint64_t>(seq)) ^ static_cast<uint64_t>(trigger));
}

uint64_t JoinKey(int64_t cseq, int64_t oseq, int64_t trigger) {
  return Mix(Mix(Mix(static_cast<uint64_t>(cseq)) ^
                 static_cast<uint64_t>(oseq)) ^
             (kJoinSalt + static_cast<uint64_t>(trigger)));
}

uint64_t AggKey(uint64_t round, int64_t cust) {
  return Mix(Mix(round ^ kAggSalt) ^ static_cast<uint64_t>(cust));
}

/// Parses the trigger index of an event named <prefix><index>.
bool EventIndex(const std::string& name, int64_t* index) {
  if (name.size() < 2) return false;
  auto [ptr, ec] =
      std::from_chars(name.data() + 1, name.data() + name.size(), *index);
  return ec == std::errc() && ptr == name.data() + name.size();
}

bool IntArg(const Event& e, size_t i, int64_t* out) {
  if (i >= e.args.size() || !e.args[i].is_int()) return false;
  *out = e.args[i].as_int();
  return true;
}

void Exec(TriggerManager* tman, const std::string& command) {
  Check(tman->ExecuteCommand(command).status(), command.c_str());
}

void SubmitInChunks(TriggerManager* tman,
                    const std::vector<UpdateDescriptor>& tokens) {
  for (size_t begin = 0; begin < tokens.size(); begin += 256) {
    std::vector<UpdateDescriptor> chunk(
        tokens.begin() + static_cast<ptrdiff_t>(begin),
        tokens.begin() +
            static_cast<ptrdiff_t>(std::min(tokens.size(), begin + 256)));
    Check(tman->SubmitUpdateBatch(chunk), "preload submit");
  }
  tman->Drain();
}

// ---------------------------------------------------------------------------
// select_memory / select_durable
// ---------------------------------------------------------------------------

struct SelectConfig {
  int64_t triggers;
  int64_t symbols;
  int64_t price_domain;
  int64_t threshold_max;
  bool durable;
};

/// Triggers `symbol = 'SYMk' and price > c` spread evenly over the
/// symbols; quotes with Zipf-skewed symbols and uniform prices.
class SelectWorkload : public Workload {
 public:
  SelectWorkload(const SelectConfig& config, uint64_t seed, bool tiny)
      : config_(config),
        zipf_(config.symbols, kZipfTheta),
        stream_(seed ^ kStreamSalt),
        round_len_(tiny ? 512 : 4096),
        by_symbol_(static_cast<size_t>(config.symbols)) {
    // Each symbol's thresholds are evenly spaced in [0, threshold_max), so
    // the work per token depends on the seed only through the stream.
    const int64_t per_symbol =
        (config.triggers + config.symbols - 1) / config.symbols;
    for (int64_t i = 0; i < config.triggers; ++i) {
      const int64_t symbol = i % config.symbols;
      const int64_t c =
          (i / config.symbols) * config.threshold_max / per_symbol +
          config.threshold_max / (2 * per_symbol);
      by_symbol_[static_cast<size_t>(symbol)].push_back({c, i});
      commands_.push_back("create trigger f" + std::to_string(i) +
                          " from quotes when quotes.symbol = 'SYM" +
                          std::to_string(symbol) + "' and quotes.price > " +
                          std::to_string(c) + " do raise event f" +
                          std::to_string(i) + "(quotes.seq)");
    }
    for (auto& list : by_symbol_) std::sort(list.begin(), list.end());
    for (int64_t s = 0; s < config.symbols; ++s) {
      symbol_names_.push_back("SYM" + std::to_string(s));
    }
  }

  bool durable() const override { return config_.durable; }

  void Install(TriggerManager* tman) override {
    Schema schema({{"seq", DataType::kInt},
                   {"symbol", DataType::kVarchar},
                   {"price", DataType::kInt}});
    source_ = CheckResult(tman->DefineStreamSource("quotes", schema),
                          "define quotes");
    for (const std::string& cmd : commands_) Exec(tman, cmd);
  }

  uint64_t seqs_per_round() const override { return round_len_; }
  bool drain_between_phases() const override { return false; }
  int64_t seq_base() const override { return 0; }

  Round NextRound() override {
    Round round;
    round.phases.emplace_back();
    std::vector<UpdateDescriptor>& tokens = round.phases.back();
    tokens.reserve(round_len_);
    for (uint64_t i = 0; i < round_len_; ++i) {
      const int64_t seq = next_seq_++;
      const int64_t symbol = zipf_.Sample(&stream_);
      const int64_t price = stream_.Uniform(config_.price_domain);
      tokens.push_back(UpdateDescriptor::Insert(
          source_, Tuple({Value::Int(seq),
                          Value::String(symbol_names_[static_cast<size_t>(
                              symbol)]),
                          Value::Int(price)})));
      for (const auto& [c, trigger] :
           by_symbol_[static_cast<size_t>(symbol)]) {
        if (c >= price) break;
        ++round.events;
        round.fingerprint += SelectKey(seq, trigger);
      }
    }
    return round;
  }

  bool Decode(const Event& e, EventKey* out) const override {
    int64_t trigger = 0;
    if (e.name.empty() || e.name[0] != 'f' || !EventIndex(e.name, &trigger) ||
        !IntArg(e, 0, &out->token_seq)) {
      return false;
    }
    out->key = SelectKey(out->token_seq, trigger);
    return true;
  }

 private:
  SelectConfig config_;
  Zipf zipf_;
  Rng stream_;
  uint64_t round_len_;
  std::vector<std::string> commands_;
  std::vector<std::string> symbol_names_;
  // symbol -> (threshold, trigger) sorted by threshold
  std::vector<std::vector<std::pair<int64_t, int64_t>>> by_symbol_;
  DataSourceId source_ = 0;
  int64_t next_seq_ = 0;
};

// ---------------------------------------------------------------------------
// join_orders
// ---------------------------------------------------------------------------

struct JoinConfig {
  int64_t customers;
  int64_t regions;
  int64_t join_triggers;
  int64_t orders_per_round;  // inserted, then the same number retired
  int64_t window_rounds;     // live orders = window_rounds * orders_per_round
  int64_t updates_per_round;
  int64_t having_sum;
  int64_t audit_amount;
};

std::string AuditSql(const Tuple& order) {
  return "update audit set last = " + std::to_string(order.at(0).as_int()) +
         " where cust = " + std::to_string(order.at(2).as_int());
}

/// customers c, orders o: two-way join triggers per region, one
/// group-by/having aggregate and one execSQL audit trigger. Each round
/// inserts orders, retires the oldest ones and updates customers, with a
/// drain between the three phases.
class JoinWorkload : public Workload {
 public:
  JoinWorkload(const JoinConfig& config, uint64_t seed)
      : config_(config),
        stream_(seed ^ kStreamSalt),
        by_region_(static_cast<size_t>(config.regions)),
        orders_of_(static_cast<size_t>(config.customers)),
        region_(static_cast<size_t>(config.customers)),
        sum_(static_cast<size_t>(config.customers), 0),
        above_(static_cast<size_t>(config.customers), false) {
    // Amount thresholds are evenly spaced, the same in every region, so
    // the work per token does not depend on the seed; the seed drives the
    // stream only.
    const int64_t per_region = config.join_triggers / config.regions;
    for (int64_t k = 0; k < config.join_triggers; ++k) {
      const int64_t region = k % config.regions;
      const int64_t x =
          (k / config.regions) * 1000 / per_region + 500 / per_region;
      by_region_[static_cast<size_t>(region)].push_back({x, k});
      commands_.push_back(
          "create trigger j" + std::to_string(k) +
          " from customers c, orders o when c.id = o.cust and c.region = 'R" +
          std::to_string(region) + "' and o.amount > " + std::to_string(x) +
          " do raise event j" + std::to_string(k) + "(c.seq, o.seq)");
    }
    commands_.push_back(
        "create trigger g from orders o group by o.cust having "
        "sum(o.amount) > " +
        std::to_string(config.having_sum) + " do raise event g(o.seq, o.cust)");
    commands_.push_back(
        "create trigger audit from orders o when o.amount > " +
        std::to_string(config.audit_amount) +
        " do execSQL 'update audit set last = :NEW.o.seq where cust = "
        ":NEW.o.cust'");
  }

  void Install(TriggerManager* tman) override {
    Database* db = tman->database();
    Check(db->CreateTable("audit", Schema({{"cust", DataType::kInt},
                                           {"last", DataType::kInt}}))
              .status(),
          "create audit table");
    Check(db->CreateIndex("audit_cust", "audit", {"cust"}), "audit index");
    for (int64_t c = 0; c < config_.customers; ++c) {
      Check(db->Insert("audit", Tuple({Value::Int(c), Value::Int(-1)}))
                .status(),
            "audit row");
    }
    customers_ = CheckResult(
        tman->DefineStreamSource("customers",
                                 Schema({{"seq", DataType::kInt},
                                         {"id", DataType::kInt},
                                         {"region", DataType::kVarchar}})),
        "define customers");
    orders_ = CheckResult(
        tman->DefineStreamSource("orders", Schema({{"seq", DataType::kInt},
                                                   {"id", DataType::kInt},
                                                   {"cust", DataType::kInt},
                                                   {"amount", DataType::kInt}})),
        "define orders");
    for (const std::string& cmd : commands_) Exec(tman, cmd);

    // Preload: every customer, then a full window of live orders.
    std::vector<UpdateDescriptor> preload;
    for (int64_t c = 0; c < config_.customers; ++c) {
      region_[static_cast<size_t>(c)] = stream_.Uniform(config_.regions);
      customer_tuples_.push_back(CustomerTuple(next_seq_++, c));
      preload.push_back(
          UpdateDescriptor::Insert(customers_, customer_tuples_.back()));
    }
    SubmitInChunks(tman, preload);
    preload.clear();
    for (int64_t i = 0; i < config_.window_rounds * config_.orders_per_round;
         ++i) {
      preload.push_back(UpdateDescriptor::Insert(orders_, NewOrder()));
    }
    SubmitInChunks(tman, preload);
    for (size_t c = 0; c < sum_.size(); ++c) {
      above_[c] = sum_[c] > config_.having_sum;
    }
  }

  uint64_t seqs_per_round() const override {
    return static_cast<uint64_t>(config_.orders_per_round +
                                 config_.updates_per_round);
  }
  bool drain_between_phases() const override { return true; }
  int64_t seq_base() const override {
    return config_.customers +
           config_.window_rounds * config_.orders_per_round;
  }

  Round NextRound() override {
    Round round;
    const uint64_t round_index = RoundOf(next_seq_);

    // Phase A: new orders join the customer memories; sums only grow, so
    // each customer's having condition crosses at most once.
    std::vector<UpdateDescriptor>& inserts = round.phases.emplace_back();
    for (int64_t i = 0; i < config_.orders_per_round; ++i) {
      Tuple order = NewOrder();
      const int64_t seq = order.at(0).as_int();
      const int64_t cust = order.at(2).as_int();
      const int64_t amount = order.at(3).as_int();
      const Tuple& customer = customer_tuples_[static_cast<size_t>(cust)];
      for (const auto& [x, k] :
           by_region_[static_cast<size_t>(region_[static_cast<size_t>(cust)])]) {
        if (amount <= x) continue;
        ++round.events;
        round.fingerprint += JoinKey(customer.at(0).as_int(), seq, k);
      }
      if (amount > config_.audit_amount) ++round.sql;
      inserts.push_back(UpdateDescriptor::Insert(orders_, std::move(order)));
    }
    for (size_t c = 0; c < sum_.size(); ++c) {
      bool now = sum_[c] > config_.having_sum;
      if (now && !above_[c]) {
        ++round.events;
        round.fingerprint += AggKey(round_index, static_cast<int64_t>(c));
      }
      above_[c] = now;
    }

    // Phase B: retire the oldest orders (sums only fall; nothing fires).
    std::vector<UpdateDescriptor>& deletes = round.phases.emplace_back();
    for (int64_t i = 0; i < config_.orders_per_round; ++i) {
      Tuple order = std::move(live_.front());
      live_.pop_front();
      const int64_t cust = order.at(2).as_int();
      auto& mine = orders_of_[static_cast<size_t>(cust)];
      mine.erase(std::find(mine.begin(), mine.end(),
                           std::make_pair(order.at(0).as_int(),
                                          order.at(3).as_int())));
      sum_[static_cast<size_t>(cust)] -= order.at(3).as_int();
      deletes.push_back(UpdateDescriptor::Delete(orders_, std::move(order)));
    }
    for (size_t c = 0; c < sum_.size(); ++c) {
      above_[c] = sum_[c] > config_.having_sum;
    }

    // Phase C: distinct customers move region and join their live orders.
    std::vector<UpdateDescriptor>& updates = round.phases.emplace_back();
    std::vector<bool> touched(static_cast<size_t>(config_.customers), false);
    while (static_cast<int64_t>(updates.size()) < config_.updates_per_round) {
      const int64_t cust = stream_.Uniform(config_.customers);
      if (touched[static_cast<size_t>(cust)]) continue;
      touched[static_cast<size_t>(cust)] = true;
      const int64_t seq = next_seq_++;
      region_[static_cast<size_t>(cust)] = stream_.Uniform(config_.regions);
      Tuple old_tuple = customer_tuples_[static_cast<size_t>(cust)];
      customer_tuples_[static_cast<size_t>(cust)] = CustomerTuple(seq, cust);
      for (const auto& [x, k] :
           by_region_[static_cast<size_t>(region_[static_cast<size_t>(cust)])]) {
        for (const auto& [oseq, amount] :
             orders_of_[static_cast<size_t>(cust)]) {
          if (amount <= x) continue;
          ++round.events;
          round.fingerprint += JoinKey(seq, oseq, k);
        }
      }
      updates.push_back(UpdateDescriptor::Update(
          customers_, std::move(old_tuple),
          customer_tuples_[static_cast<size_t>(cust)]));
    }
    return round;
  }

  bool Decode(const Event& e, EventKey* out) const override {
    if (e.name == "g") {
      int64_t cust = 0;
      if (!IntArg(e, 0, &out->token_seq) || !IntArg(e, 1, &cust)) {
        return false;
      }
      // Which order's arrival crossed the threshold depends on the
      // drivers' interleaving; the round and the customer do not.
      out->key = out->token_seq >= seq_base()
                     ? AggKey(RoundOf(out->token_seq), cust)
                     : 0;
      return true;
    }
    int64_t trigger = 0;
    int64_t cseq = 0;
    int64_t oseq = 0;
    if (e.name.empty() || e.name[0] != 'j' || !EventIndex(e.name, &trigger) ||
        !IntArg(e, 0, &cseq) || !IntArg(e, 1, &oseq)) {
      return false;
    }
    out->token_seq = std::max(cseq, oseq);
    out->key = JoinKey(cseq, oseq, trigger);
    return true;
  }

  JoinReplaySpec join_replay() const override {
    JoinReplaySpec spec;
    for (int64_t k = 0; k < config_.join_triggers; ++k) {
      std::string name = "j";
      name += std::to_string(k);
      spec.triggers.push_back(std::move(name));
    }
    spec.arrival_var = "o";
    spec.arrival_source = orders_;
    spec.audit_sql = &AuditSql;
    return spec;
  }

 private:
  Tuple CustomerTuple(int64_t seq, int64_t cust) const {
    return Tuple({Value::Int(seq), Value::Int(cust),
                  Value::String("R" + std::to_string(
                                          region_[static_cast<size_t>(cust)]))});
  }

  /// Draws the next order and adds it to the model's live set.
  Tuple NewOrder() {
    const int64_t seq = next_seq_++;
    const int64_t cust = stream_.Uniform(config_.customers);
    const int64_t amount = 1 + stream_.Uniform(1000);
    Tuple order({Value::Int(seq), Value::Int(next_order_id_++),
                 Value::Int(cust), Value::Int(amount)});
    live_.push_back(order);
    orders_of_[static_cast<size_t>(cust)].push_back({seq, amount});
    sum_[static_cast<size_t>(cust)] += amount;
    return order;
  }

  JoinConfig config_;
  Rng stream_;
  std::vector<std::string> commands_;
  // region -> (amount threshold, trigger index)
  std::vector<std::vector<std::pair<int64_t, int64_t>>> by_region_;
  DataSourceId customers_ = 0;
  DataSourceId orders_ = 0;
  int64_t next_seq_ = 0;
  int64_t next_order_id_ = 0;
  // Reference model of the live stream state.
  std::deque<Tuple> live_;  // live orders, oldest first
  std::vector<std::vector<std::pair<int64_t, int64_t>>> orders_of_;
  std::vector<Tuple> customer_tuples_;
  std::vector<int64_t> region_;
  std::vector<int64_t> sum_;
  std::vector<bool> above_;  // having condition true after the last phase
};

}  // namespace

int64_t OwnSeq(const UpdateDescriptor& token) {
  if (token.op == OpCode::kDelete || !token.new_tuple.has_value()) return -1;
  return token.new_tuple->at(0).as_int();
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       bool tiny) {
  const int64_t div = tiny ? 16 : 1;
  if (name == "select_memory" || name == "select_durable") {
    return std::make_unique<SelectWorkload>(
        SelectConfig{2000 / div, 256 / div, 1000, 500,
                     name == "select_durable"},
        seed, tiny);
  }
  if (name == "join_orders") {
    return std::make_unique<JoinWorkload>(
        JoinConfig{2048 / div, 8, 64 / (tiny ? 4 : 1), 1024 / div, 4,
                   256 / div, 1500, 900},
        seed);
  }
  return nullptr;
}

}  // namespace tman::e2e
