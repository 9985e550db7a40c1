// Canonical, versioned fingerprints for (Scenario, ExperimentOptions)
// pairs — the cache key of the campaign subsystem.
//
// Two runs are interchangeable iff every field that can influence an
// ExperimentResult is identical; the key is a 128-bit hash of a canonical
// textual rendering of all of them. The rendering is salted with
// kResultSchemaVersion so that cache entries become unreachable (and are
// re-simulated) whenever result semantics change — bump the constant when
// touching run_experiment's metrics or the store's serialization.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "src/core/experiment.hpp"
#include "src/core/scenario.hpp"

namespace burst {

/// Bump whenever ExperimentResult's meaning or serialization changes.
/// v2: RED drop-probability off-by-one and c.o.v. bin-boundary fixes
///     changed metric values; sim_events/peak_pending joined the
///     serialized result. v1 entries are stale on all three counts.
/// v3: component metrics snapshot (counters + queue-occupancy histogram)
///     joined the serialized result; v2 entries lack the field.
inline constexpr std::uint32_t kResultSchemaVersion = 3;

/// Version of the *topology extension* of the key (the fields appended by
/// scenario_key_with_topology). Bump when the canonical topology
/// rendering changes meaning. Independent of kResultSchemaVersion: plain
/// (non-topology) keys never carry it, so existing fingerprints — and the
/// five pinned identity hashes — are untouched by bumps here.
inline constexpr std::uint32_t kTopoKeyVersion = 1;

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit permutation
/// (Steele et al., "Fast splittable pseudorandom number generators").
std::uint64_t splitmix64(std::uint64_t x);

/// FNV-1a over bytes; the streaming primitive behind the fingerprint.
std::uint64_t fnv1a64(std::string_view bytes,
                      std::uint64_t seed = 14695981039346656037ULL);

/// Decorrelates per-point RNG seeds: a splitmix64 chain over (base seed,
/// series name, point value). Unlike the old affine formula
/// (base + 1000003*c + 17*p) this cannot collide on realistic grids, and
/// because it keys on the *values* (series name, client count) rather
/// than loop indices, the same scenario gets the same seed no matter
/// which figure or sweep ordering produced it — the property the result
/// cache's cross-figure dedup relies on.
std::uint64_t derive_seed(std::uint64_t base_seed, std::string_view series,
                          std::int64_t point);

/// A 128-bit fingerprint, printable as 32 lowercase hex digits.
struct ScenarioKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  std::string hex() const;
  /// Parses 32 hex digits; returns false (and leaves *out alone) otherwise.
  static bool parse(std::string_view s, ScenarioKey* out);

  friend bool operator==(const ScenarioKey&, const ScenarioKey&) = default;
};

struct ScenarioKeyHash {
  std::size_t operator()(const ScenarioKey& k) const {
    return static_cast<std::size_t>(k.hi ^ splitmix64(k.lo));
  }
};

/// The canonical rendering the key hashes: every Scenario and
/// ExperimentOptions field as `name=value;`, doubles in hexfloat so the
/// text is bit-exact. Exposed for tests and debugging.
std::string canonical_string(const Scenario& s,
                             const ExperimentOptions& opts = {});

/// Fingerprint of one experiment: hash of canonical_string, salted with
/// kResultSchemaVersion.
ScenarioKey scenario_key(const Scenario& s, const ExperimentOptions& opts = {});

/// Fingerprint of an experiment run on an explicit topology. The key
/// hashes the plain canonical string with versioned topology fields
/// appended (`topo_v=<kTopoKeyVersion>;topo=<canonical graph>;`), so a
/// topology-built scenario can never collide with — or be served from the
/// cache of — plain run_experiment runs unless the caller chose the
/// plain key on purpose (see topo_key() in src/topo, which does exactly
/// that for graphs that are canonically the dumbbell).
ScenarioKey scenario_key_with_topology(const Scenario& s,
                                       std::string_view topo_canonical,
                                       const ExperimentOptions& opts = {});

}  // namespace burst
