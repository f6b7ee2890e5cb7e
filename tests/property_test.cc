// Property-based tests: randomized workloads checked against reference
// models and semantic invariants.

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "expr/cnf.h"
#include "expr/eval.h"
#include "expr/rewrite.h"
#include "expr/signature.h"
#include "network/atreat.h"
#include "parser/parser.h"
#include "predindex/predicate_index.h"
#include "util/random.h"

namespace tman {
namespace {

Schema TestSchema() {
  return Schema({{"a", DataType::kInt},
                 {"b", DataType::kInt},
                 {"s", DataType::kVarchar}});
}

Tuple RandomTuple(Random* rng) {
  return Tuple({Value::Int(rng->UniformRange(-20, 20)),
                Value::Int(rng->UniformRange(0, 100)),
                Value::String("k" + std::to_string(rng->Uniform(10)))});
}

ExprPtr MustParseLocal(const std::string& text) {
  auto r = ParseExpressionString(text);
  EXPECT_TRUE(r.ok()) << text;
  return *r;
}

/// A random boolean expression over one tuple variable "t".
ExprPtr RandomPredicate(Random* rng, int depth) {
  if (depth <= 0 || rng->Bernoulli(0.45)) {
    // Leaf comparison.
    switch (rng->Uniform(5)) {
      case 0:
        return MustParseLocal("t.a = " +
                              std::to_string(rng->UniformRange(-20, 20)));
      case 1:
        return MustParseLocal("t.b > " +
                              std::to_string(rng->UniformRange(0, 100)));
      case 2:
        return MustParseLocal("t.b <= " +
                              std::to_string(rng->UniformRange(0, 100)));
      case 3:
        return MustParseLocal("t.s = 'k" + std::to_string(rng->Uniform(10)) +
                              "'");
      default:
        return MustParseLocal("t.a + t.b > " +
                              std::to_string(rng->UniformRange(-10, 110)));
    }
  }
  switch (rng->Uniform(3)) {
    case 0:
      return MakeBinary(BinOp::kAnd, RandomPredicate(rng, depth - 1),
                        RandomPredicate(rng, depth - 1));
    case 1:
      return MakeBinary(BinOp::kOr, RandomPredicate(rng, depth - 1),
                        RandomPredicate(rng, depth - 1));
    default:
      return MakeUnary(UnOp::kNot, RandomPredicate(rng, depth - 1));
  }
}

bool EvalOn(const ExprPtr& e, const Schema& schema, const Tuple& t) {
  Bindings b;
  b.Bind("t", &schema, &t);
  auto r = EvalPredicate(e, b);
  EXPECT_TRUE(r.ok()) << ExprToString(e) << ": " << r.status().ToString();
  return r.ok() && *r;
}

// --- CNF preserves semantics ------------------------------------------------

TEST(CnfPropertyTest, CnfEquivalentToOriginal) {
  Random rng(1234);
  Schema schema = TestSchema();
  for (int round = 0; round < 300; ++round) {
    ExprPtr e = RandomPredicate(&rng, 3);
    auto cnf = ToCnf(e);
    if (!cnf.ok()) continue;  // blown size bound — allowed
    for (int probe = 0; probe < 10; ++probe) {
      Tuple t = RandomTuple(&rng);
      bool original = EvalOn(e, schema, t);
      bool conjunction = true;
      for (const ExprPtr& c : *cnf) {
        if (!EvalOn(c, schema, t)) {
          conjunction = false;
          break;
        }
      }
      ASSERT_EQ(original, conjunction)
          << "expr: " << ExprToString(e) << " tuple: " << t.ToString();
    }
  }
}

// --- signature generalization round trips -----------------------------------

TEST(SignaturePropertyTest, BindPlaceholdersRestoresPredicate) {
  Random rng(99);
  Schema schema = TestSchema();
  for (int round = 0; round < 300; ++round) {
    ExprPtr e = RandomPredicate(&rng, 2);
    auto gen = GeneralizePredicate(1, OpCode::kInsert, e);
    ASSERT_TRUE(gen.ok());
    auto restored =
        BindPlaceholders(gen->signature.generalized, gen->constants);
    ASSERT_TRUE(restored.ok());
    // The restored predicate must evaluate identically to the original on
    // arbitrary tuples (canonicalization may flip comparisons, but never
    // semantics).
    for (int probe = 0; probe < 10; ++probe) {
      Tuple t = RandomTuple(&rng);
      ASSERT_EQ(EvalOn(e, schema, t), EvalOn(*restored, schema, t))
          << "expr: " << ExprToString(e)
          << " restored: " << ExprToString(*restored);
    }
  }
}

TEST(SignaturePropertyTest, SplitPartsConjoinToWhole) {
  // For every generalized predicate: (eq conjuncts AND range AND rest)
  // == whole. We verify by binding constants and evaluating.
  Random rng(7);
  Schema schema = TestSchema();
  for (int round = 0; round < 300; ++round) {
    ExprPtr e = RandomPredicate(&rng, 2);
    auto gen = GeneralizePredicate(1, OpCode::kInsert, e);
    ASSERT_TRUE(gen.ok());
    IndexableSplit split = SplitIndexable(gen->signature.generalized);
    // Reassemble: indexable eq conjuncts + range bounds + rest.
    std::vector<ExprPtr> parts;
    for (const EqConjunct& c : split.eq) {
      parts.push_back(MakeBinary(BinOp::kEq, MakeColumnRef("t", c.attribute),
                                 MakePlaceholder(c.placeholder)));
    }
    if (split.has_range) {
      const RangeSpec& r = split.range;
      if (r.has_lo) {
        parts.push_back(MakeBinary(
            r.lo_inclusive ? BinOp::kGe : BinOp::kGt,
            MakeColumnRef("t", r.attribute),
            MakePlaceholder(r.lo_placeholder)));
      }
      if (r.has_hi) {
        parts.push_back(MakeBinary(
            r.hi_inclusive ? BinOp::kLe : BinOp::kLt,
            MakeColumnRef("t", r.attribute),
            MakePlaceholder(r.hi_placeholder)));
      }
    }
    if (split.rest != nullptr) parts.push_back(split.rest);
    ExprPtr reassembled = AndAll(parts);
    auto bound_whole =
        BindPlaceholders(gen->signature.generalized, gen->constants);
    auto bound_parts = BindPlaceholders(reassembled, gen->constants);
    ASSERT_TRUE(bound_whole.ok() && bound_parts.ok());
    for (int probe = 0; probe < 10; ++probe) {
      Tuple t = RandomTuple(&rng);
      ASSERT_EQ(EvalOn(*bound_whole, schema, t),
                EvalOn(*bound_parts, schema, t))
          << ExprToString(*bound_whole) << " vs "
          << ExprToString(*bound_parts);
    }
  }
}

// --- all four organizations agree -------------------------------------------

class OrganizationEquivalenceTest : public ::testing::TestWithParam<OrgType> {
};

TEST_P(OrganizationEquivalenceTest, MatchesAgreeWithDirectEvaluation) {
  OrgType org = GetParam();
  Random rng(static_cast<uint64_t>(org) * 7919 + 5);
  Database db;
  OrgPolicy policy;
  policy.forced = true;
  policy.forced_type = org;
  PredicateIndex index(&db, policy);
  Schema schema = TestSchema();
  ASSERT_TRUE(index.RegisterDataSource(1, schema).ok());

  // Install random predicates, remembering their concrete forms.
  struct Installed {
    TriggerId id;
    ExprPtr predicate;
  };
  std::vector<Installed> installed;
  for (int i = 0; i < 60; ++i) {
    ExprPtr e = RandomPredicate(&rng, 2);
    PredicateSpec spec;
    spec.data_source = 1;
    spec.op = OpCode::kInsertOrUpdate;
    spec.predicate = e;
    spec.trigger_id = static_cast<TriggerId>(i + 1);
    auto added = index.AddPredicate(spec);
    ASSERT_TRUE(added.ok()) << added.status().ToString() << " for "
                            << ExprToString(e);
    installed.push_back({spec.trigger_id, e});
  }

  // Probe with random tokens: the index must emit exactly the triggers
  // whose predicate evaluates true.
  for (int probe = 0; probe < 200; ++probe) {
    Tuple t = RandomTuple(&rng);
    std::set<TriggerId> expected;
    for (const Installed& inst : installed) {
      Bindings b;
      b.Bind("t", &schema, &t);
      auto pass = EvalPredicate(inst.predicate, b);
      ASSERT_TRUE(pass.ok());
      if (*pass) expected.insert(inst.id);
    }
    std::vector<PredicateMatch> out;
    ASSERT_TRUE(index.Match(UpdateDescriptor::Insert(1, t), &out).ok());
    std::set<TriggerId> got;
    for (const auto& m : out) got.insert(m.trigger_id);
    ASSERT_EQ(got, expected) << "tuple " << t.ToString() << " org "
                             << OrgTypeName(org);
  }
}

INSTANTIATE_TEST_SUITE_P(AllOrganizations, OrganizationEquivalenceTest,
                         ::testing::Values(OrgType::kMemoryList,
                                           OrgType::kMemoryIndex,
                                           OrgType::kDbTable,
                                           OrgType::kDbIndexedTable),
                         [](const auto& info) {
                           return std::string(OrgTypeName(info.param))
                                      .find("memory") != std::string::npos
                                      ? (info.param == OrgType::kMemoryList
                                             ? "MemoryList"
                                             : "MemoryIndex")
                                      : (info.param == OrgType::kDbTable
                                             ? "DbTable"
                                             : "DbIndexedTable");
                         });

// --- partitioned matching is a partition ------------------------------------

class PartitionCoverageTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(PartitionCoverageTest, PartitionsAreDisjointAndComplete) {
  uint32_t parts = GetParam();
  Random rng(55);
  PredicateIndex index(nullptr, OrgPolicy());
  Schema schema = TestSchema();
  ASSERT_TRUE(index.RegisterDataSource(1, schema).ok());
  for (int i = 0; i < 100; ++i) {
    PredicateSpec spec;
    spec.data_source = 1;
    spec.op = OpCode::kInsertOrUpdate;
    spec.predicate = RandomPredicate(&rng, 2);
    spec.trigger_id = static_cast<TriggerId>(i + 1);
    ASSERT_TRUE(index.AddPredicate(spec).ok());
  }
  for (int probe = 0; probe < 50; ++probe) {
    Tuple t = RandomTuple(&rng);
    UpdateDescriptor token = UpdateDescriptor::Insert(1, t);
    std::multiset<TriggerId> unpartitioned;
    ASSERT_TRUE(index
                    .MatchPartitioned(token, 0, 1,
                                      [&](const PredicateMatch& m) {
                                        unpartitioned.insert(m.trigger_id);
                                      })
                    .ok());
    std::multiset<TriggerId> combined;
    for (uint32_t p = 0; p < parts; ++p) {
      ASSERT_TRUE(index
                      .MatchPartitioned(token, p, parts,
                                        [&](const PredicateMatch& m) {
                                          combined.insert(m.trigger_id);
                                        })
                      .ok());
    }
    ASSERT_EQ(combined, unpartitioned);
  }
}

INSTANTIATE_TEST_SUITE_P(PartitionCounts, PartitionCoverageTest,
                         ::testing::Values(2u, 3u, 7u, 16u));

// --- discrimination networks vs naive evaluation ----------------------------

/// Reference model for join firing semantics: plain live-tuple lists per
/// variable and, on arrival, brute-force enumeration of every combination
/// (arriving tuple fixed at its variable) evaluated against the *whole*
/// un-normalized condition. No networks, no CNF, no memo structures — if
/// A-TREAT disagrees with this, it is wrong.
class NaiveJoinReference {
 public:
  NaiveJoinReference(ExprPtr condition, std::vector<std::string> var_names,
                     std::vector<Schema> schemas)
      : condition_(std::move(condition)),
        var_names_(std::move(var_names)),
        schemas_(std::move(schemas)),
        live_(var_names_.size()) {}

  /// Firings caused by `t` arriving at `var`, as serialized bindings.
  std::multiset<std::string> Add(size_t var, const Tuple& t) {
    std::multiset<std::string> firings;
    std::vector<const Tuple*> combo(live_.size(), nullptr);
    combo[var] = &t;
    Enumerate(0, var, &combo, &firings);
    live_[var].push_back(t);
    return firings;
  }

  void Remove(size_t var, const Tuple& t) {
    std::string key = Encode({t});
    auto& list = live_[var];
    for (auto it = list.begin(); it != list.end(); ++it) {
      if (Encode({*it}) == key) {
        list.erase(it);
        return;
      }
    }
    ADD_FAILURE() << "reference asked to remove unknown tuple";
  }

  const std::vector<Tuple>& live(size_t var) const { return live_[var]; }

  static std::string Encode(const std::vector<Tuple>& bindings) {
    std::string out;
    for (const Tuple& t : bindings) t.Serialize(&out);
    return out;
  }

 private:
  void Enumerate(size_t var, size_t fixed, std::vector<const Tuple*>* combo,
                 std::multiset<std::string>* firings) {
    if (var == live_.size()) {
      Bindings b;
      for (size_t v = 0; v < live_.size(); ++v) {
        b.Bind(var_names_[v], &schemas_[v], (*combo)[v]);
      }
      auto pass = EvalPredicate(condition_, b);
      ASSERT_TRUE(pass.ok()) << pass.status().ToString();
      if (*pass) {
        std::vector<Tuple> bound;
        for (const Tuple* t : *combo) bound.push_back(*t);
        firings->insert(Encode(bound));
      }
      return;
    }
    if (var == fixed) {
      Enumerate(var + 1, fixed, combo, firings);
      return;
    }
    for (const Tuple& t : live_[var]) {
      (*combo)[var] = &t;
      Enumerate(var + 1, fixed, combo, firings);
    }
    (*combo)[var] = nullptr;
  }

  ExprPtr condition_;
  std::vector<std::string> var_names_;
  std::vector<Schema> schemas_;
  std::vector<std::vector<Tuple>> live_;
};

TEST(NetworkPropertyTest, ATreatMatchesNaiveReference) {
  // Random trigger sets (join conditions over 2-3 tuple variables) and
  // random token streams: the network must fire exactly the bindings the
  // naive evaluator derives, at every step. Conditions stay
  // free of single-variable conjuncts — selection predicates belong to
  // the predicate index, not the join networks (§5.1).
  const std::vector<std::string> kNames = {"r", "s", "u"};
  const std::vector<Schema> kSchemas = {
      Schema({{"a", DataType::kInt}, {"b", DataType::kInt},
              {"k", DataType::kInt}}),
      Schema({{"a", DataType::kInt}, {"c", DataType::kInt},
              {"k", DataType::kInt}}),
      Schema({{"a", DataType::kInt}, {"d", DataType::kInt},
              {"k", DataType::kInt}}),
  };
  const std::vector<std::string> kTwoVarExtras = {
      "r.b > s.c", "r.b + s.c < 40", "not (r.b = s.c)"};
  const std::vector<std::string> kThreeVarExtras = {
      "r.b > s.c", "s.c <= u.d", "r.b + u.d > 20", "not (s.c = u.d)"};

  for (uint64_t seed = 1; seed <= 30; ++seed) {
    Random rng(seed * 6151 + 3);
    size_t num_vars = rng.Bernoulli(0.5) ? 2 : 3;

    // Random trigger: equijoin chain on `a` plus random extra conjuncts.
    std::string cond_text = "r.a = s.a";
    if (num_vars == 3) cond_text += " and s.a = u.a";
    const auto& extras = num_vars == 2 ? kTwoVarExtras : kThreeVarExtras;
    for (const std::string& extra : extras) {
      if (rng.Bernoulli(0.4)) cond_text += " and " + extra;
    }
    ExprPtr condition = MustParseLocal(cond_text);
    SCOPED_TRACE("condition: " + cond_text + "; reproducing seed: " +
                 std::to_string(seed));

    std::vector<TupleVarInfo> vars;
    std::vector<Schema> schemas;
    std::vector<std::string> names;
    for (size_t v = 0; v < num_vars; ++v) {
      vars.push_back({kNames[v], "tbl_" + kNames[v],
                      static_cast<DataSourceId>(21 + v),
                      OpCode::kInsertOrUpdate});
      schemas.push_back(kSchemas[v]);
      names.push_back(kNames[v]);
    }
    auto cnf = ToCnf(condition);
    ASSERT_TRUE(cnf.ok());
    auto graph = ConditionGraph::Build(vars, *cnf);
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();
    // No database: every node is a stored memory (stream-style sources).
    auto atreat = ATreatNetwork::Build(*graph, nullptr, schemas);
    ASSERT_TRUE(atreat.ok()) << atreat.status().ToString();

    NaiveJoinReference reference(condition, names, schemas);
    int serial = 0;  // unique per tuple: removal is unambiguous
    for (int step = 0; step < 120; ++step) {
      size_t var = rng.Uniform(num_vars);
      bool add = reference.live(var).empty() || rng.Bernoulli(0.65);
      if (add) {
        Tuple t({Value::Int(rng.UniformRange(0, 5)),
                 Value::Int(rng.UniformRange(0, 30)), Value::Int(serial++)});
        std::multiset<std::string> expected = reference.Add(var, t);
        if (::testing::Test::HasFatalFailure()) return;

        std::multiset<std::string> atreat_firings;
        ASSERT_TRUE(
            (*atreat)->AddTuple(static_cast<NetworkNodeId>(var), t).ok());
        ASSERT_TRUE((*atreat)
                        ->MatchJoins(static_cast<NetworkNodeId>(var), t,
                                     [&](const std::vector<Tuple>& b) {
                                       atreat_firings.insert(
                                           NaiveJoinReference::Encode(b));
                                     })
                        .ok());
        ASSERT_EQ(atreat_firings, expected) << "A-TREAT diverged at step "
                                            << step;
      } else {
        size_t pick = rng.Uniform(reference.live(var).size());
        Tuple t = reference.live(var)[pick];
        reference.Remove(var, t);
        ASSERT_TRUE(
            (*atreat)->RemoveTuple(static_cast<NetworkNodeId>(var), t).ok());
      }
      ASSERT_EQ((*atreat)->memory_size(static_cast<NetworkNodeId>(var)),
                reference.live(var).size())
          << "A-TREAT memory diverged at step " << step;
    }
    // Alpha memories track the reference's live lists exactly.
    for (size_t v = 0; v < num_vars; ++v) {
      EXPECT_EQ((*atreat)->memory_size(static_cast<NetworkNodeId>(v)),
                reference.live(v).size());
    }
  }
}

// --- parser/printer round trip ----------------------------------------------

TEST(ParserPropertyTest, ToStringReparsesEquivalently) {
  Random rng(2718);
  Schema schema = TestSchema();
  for (int round = 0; round < 300; ++round) {
    ExprPtr e = RandomPredicate(&rng, 3);
    std::string text = ExprToString(e);
    auto reparsed = ParseExpressionString(text);
    ASSERT_TRUE(reparsed.ok()) << text;
    ASSERT_TRUE(ExprEquals(e, *reparsed))
        << text << " vs " << ExprToString(*reparsed);
  }
}

}  // namespace
}  // namespace tman
