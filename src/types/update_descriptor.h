#ifndef TRIGGERMAN_TYPES_UPDATE_DESCRIPTOR_H_
#define TRIGGERMAN_TYPES_UPDATE_DESCRIPTOR_H_

#include <cstdint>
#include <optional>
#include <string>

#include "types/tuple.h"

namespace tman {

/// Identifier of a data source (a table in a local/remote database, or a
/// stream of tuples from an application program).
using DataSourceId = uint32_t;

/// Update event operation codes. kInsertOrUpdate appears only in
/// expression signatures (a tuple variable with no explicit `on` event is
/// implicitly insert-or-update); concrete tokens carry one of the first
/// three.
enum class OpCode : uint8_t {
  kInsert = 0,
  kDelete = 1,
  kUpdate = 2,
  kInsertOrUpdate = 3,
};

std::string_view OpCodeName(OpCode op);

/// An update descriptor — the paper's "token". It consists of a data
/// source ID, an operation code, and an old tuple, new tuple, or old/new
/// tuple pair (old for deletes, new for inserts, both for updates).
struct UpdateDescriptor {
  DataSourceId data_source = 0;
  OpCode op = OpCode::kInsert;
  std::optional<Tuple> old_tuple;
  std::optional<Tuple> new_tuple;

  static UpdateDescriptor Insert(DataSourceId ds, Tuple t) {
    UpdateDescriptor u;
    u.data_source = ds;
    u.op = OpCode::kInsert;
    u.new_tuple = std::move(t);
    return u;
  }
  static UpdateDescriptor Delete(DataSourceId ds, Tuple t) {
    UpdateDescriptor u;
    u.data_source = ds;
    u.op = OpCode::kDelete;
    u.old_tuple = std::move(t);
    return u;
  }
  static UpdateDescriptor Update(DataSourceId ds, Tuple old_t, Tuple new_t) {
    UpdateDescriptor u;
    u.data_source = ds;
    u.op = OpCode::kUpdate;
    u.old_tuple = std::move(old_t);
    u.new_tuple = std::move(new_t);
    return u;
  }

  /// The tuple whose attribute values selection predicates test: the new
  /// tuple for inserts/updates, the old tuple for deletes.
  const Tuple& EffectiveTuple() const {
    return op == OpCode::kDelete ? *old_tuple : *new_tuple;
  }

  /// Serialization for the write-ahead log (the persistent update queue).
  void Serialize(std::string* out) const;
  static Result<UpdateDescriptor> Deserialize(std::string_view data);

  std::string ToString() const;
};

/// True if a token with opcode `token_op` satisfies an event condition
/// declared with `event_op` (kInsertOrUpdate matches insert and update).
inline bool OpMatches(OpCode event_op, OpCode token_op) {
  if (event_op == token_op) return true;
  return event_op == OpCode::kInsertOrUpdate &&
         (token_op == OpCode::kInsert || token_op == OpCode::kUpdate);
}

}  // namespace tman

#endif  // TRIGGERMAN_TYPES_UPDATE_DESCRIPTOR_H_
