// The benchmark's four workloads: installed triggers, a seeded token
// stream, and a reference model that predicts every raised event.

#ifndef TMAN_BENCH_E2E_WORKLOADS_H_
#define TMAN_BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/events.h"
#include "core/trigger_manager.h"
#include "types/update_descriptor.h"

namespace tman::e2e {

/// One round of the measured stream. Tokens inside a phase may be
/// processed in any order and by any driver; when the workload drains
/// between phases, every phase starts on the fully processed state of the
/// one before, so the expected events do not depend on interleaving.
struct Round {
  std::vector<std::vector<UpdateDescriptor>> phases;
  uint64_t events = 0;       // expected raised events
  uint64_t fingerprint = 0;  // sum of the expected events' keys
  uint64_t sql = 0;          // expected execSQL actions
};

/// What the check takes from one raised event: the stream position of
/// the token that caused it, and its fingerprint key.
struct EventKey {
  int64_t token_seq = 0;
  uint64_t key = 0;
};

/// Traced-run hooks for the join network and MiniDB replays.
struct JoinReplaySpec {
  std::vector<std::string> triggers;  // join trigger names
  std::string arrival_var;            // tuple variable the probes enter at
  DataSourceId arrival_source = 0;
  /// The audit trigger's SQL for one arriving tuple (as the action's
  /// macro substitution would produce it).
  std::string (*audit_sql)(const Tuple& tuple) = nullptr;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// The one deployment choice a workload makes: durable (durable_wal
  /// with the default staging, cluster_main's node configuration) or
  /// memory staging (server_main --memory). Tuning knobs (batch size,
  /// adaptivity, organization policy) stay at the program's defaults.
  virtual bool durable() const { return false; }

  /// Defines the sources, installs every trigger and runs any preload.
  /// The manager is opened and its drivers are running.
  virtual void Install(TriggerManager* tman) = 0;

  /// Sequence numbers per round; constant, so a token's round is
  /// (seq - seq_base()) / seqs_per_round(). Column 0 of every tuple is
  /// the sequence number of the token that produced it; a delete carries
  /// its victim's, so it consumes none of its own.
  virtual uint64_t seqs_per_round() const = 0;
  virtual bool drain_between_phases() const = 0;
  /// First sequence number of the measured stream (preload tokens, whose
  /// events the check ignores, come before it).
  virtual int64_t seq_base() const = 0;

  /// Generates the next round and advances the reference model.
  virtual Round NextRound() = 0;

  /// Decodes a raised event; false for events that carry no token.
  virtual bool Decode(const Event& event, EventKey* out) const = 0;

  /// Empty `triggers` when the workload has no join triggers.
  virtual JoinReplaySpec join_replay() const { return {}; }

  uint64_t RoundOf(int64_t seq) const {
    return static_cast<uint64_t>(seq - seq_base()) / seqs_per_round();
  }
};

/// The token's own sequence number, or -1 for a delete.
int64_t OwnSeq(const UpdateDescriptor& token);

/// Builds a workload by name; null for an unknown name. `tiny` shrinks
/// trigger counts and rounds for the self-test.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed, bool tiny);

}  // namespace tman::e2e

#endif  // TMAN_BENCH_E2E_WORKLOADS_H_
