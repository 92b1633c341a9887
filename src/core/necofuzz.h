// NecoFuzz umbrella header — the public API surface.
//
//   #include "src/core/necofuzz.h"
//
//   neco::CampaignOptions options;
//   options.arch = neco::Arch::kIntel;
//   options.iterations = 20000;
//   options.workers = 4;  // 1 = serial; N shards merge deterministically.
//   neco::CampaignEngine engine("kvm", options);  // registry name,
//                                                 // factory, or instance
//   engine.AddObserver(&my_observer);  // optional CampaignObserver stream
//   const neco::EngineResult result = engine.Run();
//   // result.merged.final_percent, result.merged.findings, ...
//
// Shards merge through the delta pipeline (src/core/merge_pipeline.h),
// whose records are wire-serializable (src/core/wire.h) and travel a
// pluggable ShardTransport (src/core/transport/): thread shards over the
// in-proc queue, or — options.shard_mode = ShardMode::kProcesses —
// fork/exec'd child processes over one socketpair each, with identical
// results. See
// README.md for the architecture overview and examples/ for runnable
// programs.
#ifndef SRC_CORE_NECOFUZZ_H_
#define SRC_CORE_NECOFUZZ_H_

#include "src/core/agent.h"                      // IWYU pragma: export
#include "src/core/campaign.h"                   // IWYU pragma: export
#include "src/core/config/configurator.h"        // IWYU pragma: export
#include "src/core/engine.h"                     // IWYU pragma: export
#include "src/core/harness/harness.h"            // IWYU pragma: export
#include "src/core/merge_pipeline.h"             // IWYU pragma: export
#include "src/core/repro/crash_store.h"          // IWYU pragma: export
#include "src/core/state/commit.h"               // IWYU pragma: export
#include "src/core/state/journal.h"              // IWYU pragma: export
#include "src/core/transport/inproc.h"           // IWYU pragma: export
#include "src/core/transport/socket.h"           // IWYU pragma: export
#include "src/core/transport/stream.h"           // IWYU pragma: export
#include "src/core/transport/supervisor.h"       // IWYU pragma: export
#include "src/core/transport/transport.h"        // IWYU pragma: export
#include "src/core/validator/oracle.h"           // IWYU pragma: export
#include "src/core/wire.h"                       // IWYU pragma: export
#include "src/core/validator/vmcb_validator.h"   // IWYU pragma: export
#include "src/core/validator/vmcs_validator.h"   // IWYU pragma: export
#include "src/hv/sim_kvm/kvm.h"                  // IWYU pragma: export
#include "src/hv/sim_vbox/vbox.h"                // IWYU pragma: export
#include "src/hv/sim_xen/xen.h"                  // IWYU pragma: export

#endif  // SRC_CORE_NECOFUZZ_H_
