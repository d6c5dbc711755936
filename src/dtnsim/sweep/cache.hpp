// Content-addressed, on-disk result cache for harness runs.
//
// The key is a 64-bit FNV-1a hash of a spec's *canonical text*: every
// simulation-affecting knob as one "key=value" line, the lines sorted by
// key (so the order knobs are written in can never change the hash),
// after a schema/calibration salt line. The knobs and their key names are
// the fields() lists beside the config structs: TestSpec's in
// harness/runner.hpp, which nests HostConfig's, PathSpec's and so on down
// to SysctlConfig's in kern/sysctl.hpp. Entries tagged wire::unkeyed
// (labels, model names, the observation switches) are left out: two specs
// with identical physics are the same cell, whatever they are called. The
// static_assert beside each list makes a knob without an entry a build
// error, so no knob can silently share a key.
//
// A cached cell lives at <dir>/<16-hex-key>.json and stores the aggregate
// TestResult (including raw per-repeat samples) through its fields() list.
// Telemetry payloads (probe series, traces) are not serialized; the
// campaign engine bypasses the cache for every spec that runs with
// telemetry (harness::run_telemetry).
//
// Bump kCacheSalt whenever the simulator's calibration or the result schema
// changes: every old entry then misses and re-simulates, which is exactly
// the invalidation story a content-addressed store wants.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "dtnsim/harness/runner.hpp"
#include "dtnsim/util/json.hpp"

namespace dtnsim::sweep {

// Schema + calibration version salt folded into every cache key.
// v2: fluid rounds span up to 8 RTTs while a transfer is steady, which
// moves coalesced LAN cells' results.
// v3: rounds span up to 32 RTTs, and a receive-window-bound flow at its
// fixed point counts as steady, which moves LAN cells' results again.
inline constexpr std::string_view kCacheSalt = "dtnsim.sweep.v3";

// The canonical text: "key=value\n" lines sorted by key, one per keyed
// entry of the spec's fields() lists, a nested struct's keys under its
// entry's key and a dot. Doubles are written as printf's %.17g (round-trips
// every double, so two knob values never collide), integers in decimal,
// bools as 1/0, enums by name; the scenario's events ("scenario.count", then
// "scenario.NNN.*") only when the timeline is non-empty. Every cache key and
// derived cell seed depends on these bytes (tests/golden/spec_keys.txt).
std::string canonical_text(const harness::TestSpec& spec);

constexpr std::uint64_t fnv1a64(std::string_view text,
                                std::uint64_t h = 0xcbf29ce484222325ULL) {
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}
// splitmix64 finalizer — used to derive well-mixed per-cell seeds.
std::uint64_t mix64(std::uint64_t x);

// fnv1a64 of the salt line and the canonical text (one text build), and a
// key as its cache file name: 16 lowercase hex digits.
std::uint64_t spec_key(const harness::TestSpec& spec);
std::string spec_key_hex(const harness::TestSpec& spec);
std::string key_hex(std::uint64_t key);

// A grid cell's seed and key from one canonical text. The seed is
// mix64(fnv1a64(text with base_seed=0) ^ campaign_seed) and is stored in
// spec.base_seed; the returned key, spec_key(spec), hashes the same text
// with that seed in its first line (base_seed sorts before every other key).
std::uint64_t seed_and_key(harness::TestSpec& spec, std::uint64_t campaign_seed);

// TestResult <-> JSON: its fields() list plus the "schema" salt (aggregate
// numbers + raw samples; no telemetry).
Json result_to_json(const harness::TestResult& result);
// False when `j` is not a result document: a missing or mistyped field, or
// a schema salt other than kCacheSalt. The salt is hashed into the file
// name too, but a stale tree copied across versions must still never serve
// mismatched entries.
bool result_from_json(const Json& j, harness::TestResult* out);

// Garbage collection over a cache directory (dtnsim-sweep --gc). Two
// independent eviction criteria; an entry matching either goes.
struct GcOptions {
  double max_age_days = -1.0;  // evict entries older than this; < 0 = off
  bool salt_mismatch = false;  // evict entries whose schema != kCacheSalt
                               // (plus unreadable/truncated entries — they
                               // can never be served again)
  bool dry_run = false;        // report what would go; delete nothing
};

struct GcReport {
  std::size_t scanned = 0;    // entries examined
  std::size_t evicted = 0;    // deleted (or would be, under dry_run)
  std::size_t kept = 0;
  std::uintmax_t reclaimed_bytes = 0;  // total size of evicted entries
  bool dry_run = false;
};

class ResultCache {
 public:
  // Creates `dir` (and parents) if missing; throws std::runtime_error when
  // the directory cannot be created.
  explicit ResultCache(std::string dir);

  const std::string& dir() const { return dir_; }
  std::string path_for(std::uint64_t key) const;

  // Load the result cached under `key`; false on miss or unreadable entry
  // (a truncated file from a killed run reads as a miss). On hit the
  // result's name is rewritten to `name` — the label is not part of the
  // address. The spec form computes spec_key(spec) and uses spec.name.
  bool load(std::uint64_t key, const std::string& name, harness::TestResult* out) const;
  bool load(const harness::TestSpec& spec, harness::TestResult* out) const;

  // Write-through: store via a temp file + atomic rename so an interrupt
  // mid-write never leaves a half-entry under the final name. A failed
  // write (a full disk) removes the temp file and returns false, leaving no
  // entry.
  bool store(std::uint64_t key, const harness::TestResult& result) const;
  bool store(const harness::TestSpec& spec, const harness::TestResult& result) const;

  // Sweep the directory and evict entries matching `opts`. Orphaned .tmp
  // files (a killed run's half-writes) are always eligible. Never touches
  // files that are neither cache entries nor cache temp files.
  GcReport gc(const GcOptions& opts) const;

 private:
  std::string dir_;
};

}  // namespace dtnsim::sweep
