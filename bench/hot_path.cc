// Data-plane micro-benchmark: the per-execution coverage hot path and the
// shard-delta wire codec, the two loops every fuzzing iteration and every
// epoch boundary pay for.
//
// Three sections, all on fixed seeds (bit-reproducible inputs):
//
//  * classify+merge ns/exec at several trace densities — the SparseTrace
//    path Fuzzer::Run uses (touched words only) against the scalar
//    full-bitmap path the seed shipped (a 64 KiB clear + byte loop per
//    execution). The ratio is the headline number of the burn-down.
//  * delta extract/apply — CoverageBitmap::ExtractDeltaSince (word skip
//    vs scalar) and CoverageUnit::ExtractDeltaSince in the saturated
//    steady state, where nearly every scan finds nothing new.
//  * ShardDelta encode/decode MB/s — the exact-size two-pass encoder and
//    the strict decoder, on a representative epoch record; the zero-copy
//    (corpus-referencing) Encode overload is measured separately.
//
// `--smoke` shrinks budgets for CI; `--json=PATH` writes the
// schema_version-1 result file tools/check_bench_json.py diffs against
// the checked-in BENCH_hotpath.json.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/wire.h"
#include "src/fuzz/bitmap.h"
#include "src/hv/coverage.h"
#include "src/support/rng.h"

namespace neco {
namespace {

using Clock = std::chrono::steady_clock;

// Keeps results observable so the optimizer cannot delete a timed loop.
volatile uint64_t g_sink = 0;

template <typename Fn>
double TimeSeconds(Fn&& fn) {
  const auto start = Clock::now();
  fn();
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Pre-generated per-exec traces: `variants` distinct edge-id lists of
// `density` hits each, cycled through by the timed loops so consecutive
// executions differ (as they do in a real campaign) without paying RNG
// cost inside the measurement.
std::vector<std::vector<uint32_t>> MakeTraces(size_t density,
                                              size_t variants,
                                              uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<uint32_t>> traces(variants);
  for (auto& trace : traces) {
    trace.reserve(density);
    for (size_t i = 0; i < density; ++i) {
      trace.push_back(static_cast<uint32_t>(rng.Next()));
    }
  }
  return traces;
}

// The current per-exec path: sparse accumulate, classify and merge only
// the touched words, O(trace) clear.
double SparseNsPerExec(const std::vector<std::vector<uint32_t>>& traces,
                       uint64_t execs) {
  CoverageBitmap virgin;
  SparseTrace trace;
  uint64_t sink = 0;
  const double secs = TimeSeconds([&] {
    for (uint64_t i = 0; i < execs; ++i) {
      const std::vector<uint32_t>& edges = traces[i % traces.size()];
      trace.Clear();
      for (const uint32_t edge : edges) {
        trace.Add(edge);
      }
      trace.ClassifyCounts();
      sink += static_cast<uint64_t>(trace.MergeInto(virgin));
    }
  });
  g_sink = g_sink + sink;
  return secs * 1e9 / static_cast<double>(execs);
}

// The seed's per-exec path: a full 64 KiB bitmap cleared every execution,
// then byte-at-a-time classify and merge over all 65,536 cells.
double ScalarNsPerExec(const std::vector<std::vector<uint32_t>>& traces,
                       uint64_t execs) {
  CoverageBitmap virgin;
  CoverageBitmap trace;
  uint64_t sink = 0;
  const double secs = TimeSeconds([&] {
    for (uint64_t i = 0; i < execs; ++i) {
      const std::vector<uint32_t>& edges = traces[i % traces.size()];
      trace.Clear();
      for (const uint32_t edge : edges) {
        trace.Add(edge);
      }
      trace.ClassifyCountsScalar();
      sink += static_cast<uint64_t>(trace.MergeIntoScalar(virgin));
    }
  });
  g_sink = g_sink + sink;
  return secs * 1e9 / static_cast<double>(execs);
}

void BenchClassifyMerge(BenchJson& json, bool smoke) {
  const uint64_t sparse_execs = smoke ? 20000 : 200000;
  const uint64_t scalar_execs = smoke ? 1000 : 10000;
  std::printf("\n[per-exec classify+merge, ns/exec]\n");
  std::printf("  %8s %12s %12s %9s\n", "density", "sparse_ns", "scalar_ns",
              "speedup");
  for (const size_t density : {16, 64, 256, 1024}) {
    const auto traces = MakeTraces(density, 64, 0x1000 + density);
    const double sparse_ns = SparseNsPerExec(traces, sparse_execs);
    const double scalar_ns = ScalarNsPerExec(traces, scalar_execs);
    const double speedup = sparse_ns > 0 ? scalar_ns / sparse_ns : 0.0;
    std::printf("  %8zu %12.1f %12.1f %8.1fx\n", density, sparse_ns,
                scalar_ns, speedup);
    const std::string suffix = "_d" + std::to_string(density);
    json.Metric("classify_merge_sparse_ns" + suffix, "ns", sparse_ns);
    json.Metric("classify_merge_scalar_ns" + suffix, "ns", scalar_ns);
    json.Metric("classify_merge_speedup" + suffix, "x", speedup);
  }
}

void BenchDeltaExtract(BenchJson& json, bool smoke) {
  const uint64_t iters = smoke ? 2000 : 20000;

  // Saturated steady state: the map carries a realistic covered set, the
  // snapshots have caught up, so every timed extract scans and finds
  // nothing — the shape of all but the first few epochs of a campaign.
  CoverageBitmap map;
  Rng rng(0x2000);
  for (int i = 0; i < 4096; ++i) {
    map.Add(static_cast<uint32_t>(rng.Next()));
  }
  map.ClassifyCounts();
  CoverageBitmap word_snapshot;
  CoverageBitmap scalar_snapshot;
  const BitmapDelta seed_delta = map.ExtractDeltaSince(word_snapshot);
  (void)map.ExtractDeltaSinceScalar(scalar_snapshot);

  uint64_t sink = 0;
  const double word_secs = TimeSeconds([&] {
    for (uint64_t i = 0; i < iters; ++i) {
      sink += map.ExtractDeltaSince(word_snapshot).size();
    }
  });
  const double scalar_secs = TimeSeconds([&] {
    for (uint64_t i = 0; i < iters; ++i) {
      sink += map.ExtractDeltaSinceScalar(scalar_snapshot).size();
    }
  });
  CoverageBitmap target;
  const double apply_secs = TimeSeconds([&] {
    for (uint64_t i = 0; i < iters; ++i) {
      target.ApplyDelta(seed_delta);
    }
  });
  g_sink = g_sink + sink + target.CountNonZero();

  // The line-coverage side: an arbitrary-size (not 8-aligned) hit vector
  // in the same caught-up steady state.
  CoverageUnit unit("bench", 40001);
  for (int i = 0; i < 12000; ++i) {
    unit.Hit(static_cast<size_t>(rng.Below(40001)));
  }
  (void)unit.DrainTrace();
  std::vector<uint8_t> unit_word_snapshot;
  std::vector<uint8_t> unit_scalar_snapshot;
  (void)unit.ExtractDeltaSince(unit_word_snapshot);
  (void)unit.ExtractDeltaSinceScalar(unit_scalar_snapshot);
  sink = 0;
  const double unit_word_secs = TimeSeconds([&] {
    for (uint64_t i = 0; i < iters; ++i) {
      sink += unit.ExtractDeltaSince(unit_word_snapshot).size();
    }
  });
  const double unit_scalar_secs = TimeSeconds([&] {
    for (uint64_t i = 0; i < iters; ++i) {
      sink += unit.ExtractDeltaSinceScalar(unit_scalar_snapshot).size();
    }
  });
  g_sink = g_sink + sink;

  const double d = static_cast<double>(iters);
  std::printf("\n[delta extract/apply, ns/call, saturated steady state]\n");
  std::printf("  bitmap extract   word %10.1f   scalar %10.1f\n",
              word_secs * 1e9 / d, scalar_secs * 1e9 / d);
  std::printf("  bitmap apply          %10.1f   (%zu-cell delta)\n",
              apply_secs * 1e9 / d, seed_delta.size());
  std::printf("  covunit extract  word %10.1f   scalar %10.1f\n",
              unit_word_secs * 1e9 / d, unit_scalar_secs * 1e9 / d);
  json.Metric("bitmap_extract_delta_ns", "ns", word_secs * 1e9 / d);
  json.Metric("bitmap_extract_delta_scalar_ns", "ns", scalar_secs * 1e9 / d);
  json.Metric("bitmap_apply_delta_ns", "ns", apply_secs * 1e9 / d);
  json.Metric("covunit_extract_delta_ns", "ns", unit_word_secs * 1e9 / d);
  json.Metric("covunit_extract_delta_scalar_ns", "ns",
              unit_scalar_secs * 1e9 / d);
}

// A representative epoch record: a few hundred novelty cells and covered
// points, a handful of 2 KiB queue discoveries, a finding, a crash pair.
ShardDelta MakeShardDelta(std::vector<FuzzInput>* corpus) {
  Rng rng(0x3000);
  ShardDelta delta;
  delta.worker = 3;
  delta.epoch = 7;
  delta.iterations = 2500;
  delta.imported = 2;
  for (int i = 0; i < 512; ++i) {
    delta.virgin.Append(static_cast<uint32_t>(rng.Below(1 << 16)),
                        static_cast<uint8_t>(1 + rng.Below(255)));
  }
  for (int i = 0; i < 384; ++i) {
    delta.covered_points.push_back(static_cast<uint32_t>(rng.Below(40000)));
  }
  corpus->clear();
  for (int i = 0; i < 16; ++i) {
    corpus->push_back(MakeRandomInput(rng));
  }
  delta.queue_entries = *corpus;
  delta.findings.push_back(
      {AnomalyKind::kAssertion, "bench-bug-1", "benchmark finding"});
  delta.crash_ids.push_back("bench-bug-1");
  delta.crash_inputs.push_back(MakeRandomInput(rng));
  return delta;
}

void BenchWireCodec(BenchJson& json, bool smoke) {
  const uint64_t iters = smoke ? 2000 : 20000;
  std::vector<FuzzInput> corpus;
  const ShardDelta delta = MakeShardDelta(&corpus);
  std::vector<const FuzzInput*> refs;
  for (const FuzzInput& input : corpus) {
    refs.push_back(&input);
  }
  const wire::Buffer frame = wire::Encode(delta);
  const double frame_mb =
      static_cast<double>(frame.size()) / (1024.0 * 1024.0);

  uint64_t sink = 0;
  const double encode_secs = TimeSeconds([&] {
    for (uint64_t i = 0; i < iters; ++i) {
      sink += wire::Encode(delta).size();
    }
  });
  const double encode_ref_secs = TimeSeconds([&] {
    for (uint64_t i = 0; i < iters; ++i) {
      sink += wire::Encode(delta, refs).size();
    }
  });
  ShardDelta decoded;
  const double decode_secs = TimeSeconds([&] {
    for (uint64_t i = 0; i < iters; ++i) {
      sink += wire::Decode(frame, &decoded) ? 1 : 0;
    }
  });
  g_sink = g_sink + sink;

  const double d = static_cast<double>(iters);
  const double encode_mbs = frame_mb * d / encode_secs;
  const double encode_ref_mbs = frame_mb * d / encode_ref_secs;
  const double decode_mbs = frame_mb * d / decode_secs;
  std::printf("\n[ShardDelta wire codec, %zu-byte frame]\n", frame.size());
  std::printf("  encode %10.1f MB/s   encode(refs) %10.1f MB/s   "
              "decode %10.1f MB/s\n",
              encode_mbs, encode_ref_mbs, decode_mbs);
  json.Metric("shard_delta_frame_bytes", "bytes",
              static_cast<double>(frame.size()));
  json.Metric("shard_delta_encode_mb_s", "MB/s", encode_mbs);
  json.Metric("shard_delta_encode_ref_mb_s", "MB/s", encode_ref_mbs);
  json.Metric("shard_delta_decode_mb_s", "MB/s", decode_mbs);
}

}  // namespace
}  // namespace neco

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") != 0 &&
        std::strncmp(argv[i], "--json=", 7) != 0) {
      std::fprintf(stderr, "usage: %s [--smoke] [--json=PATH]\n", argv[0]);
      return 2;
    }
  }
  const bool smoke = neco::ParseSmokeFlag(argc, argv);
  const std::string json_path = neco::ParseJsonPathFlag(argc, argv);

  neco::PrintHeader(std::string("Data-plane hot-path micro-benchmark — "
                                "fixed seeds, steady-state shapes") +
                    (smoke ? " [smoke]" : ""));
  neco::BenchJson json("hot_path", smoke);
  neco::BenchClassifyMerge(json, smoke);
  neco::BenchDeltaExtract(json, smoke);
  neco::BenchWireCodec(json, smoke);

  if (!json_path.empty()) {
    if (!json.WriteTo(json_path)) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
