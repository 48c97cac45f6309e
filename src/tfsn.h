// Umbrella header for libtfsn — team formation in signed networks.
//
// Reproduces Kouvatis, Semertzidis, Zerva, Pitoura, Tsaparas:
// "Forming Compatible Teams in Signed Networks", EDBT 2020.
//
// Quickstart:
//
//   #include "src/tfsn.h"
//
//   tfsn::Dataset ds = tfsn::MakeSlashdot();
//   auto oracle = tfsn::MakeOracle(ds.graph, tfsn::CompatKind::kSPM);
//   tfsn::Rng rng(7);
//   tfsn::SkillCompatibilityIndex index(oracle.get(), ds.skills, 0, &rng);
//   tfsn::GreedyTeamFormer former(oracle.get(), ds.skills, &index, {});
//   tfsn::Task task = tfsn::RandomTask(ds.skills, 5, &rng);
//   tfsn::TeamResult team = former.Form(task, &rng);

#pragma once

#include "src/compat/compat_graph.h"      // IWYU pragma: export
#include "src/compat/compatibility.h"     // IWYU pragma: export
#include "src/compat/row_cache.h"         // IWYU pragma: export
#include "src/compat/row_codec.h"         // IWYU pragma: export
#include "src/compat/row_kernels.h"       // IWYU pragma: export
#include "src/compat/row_spill.h"         // IWYU pragma: export
#include "src/compat/sbp.h"               // IWYU pragma: export
#include "src/compat/signed_bfs.h"        // IWYU pragma: export
#include "src/compat/skill_index.h"       // IWYU pragma: export
#include "src/compat/stats.h"             // IWYU pragma: export
#include "src/compat/threshold.h"         // IWYU pragma: export
#include "src/data/datasets.h"            // IWYU pragma: export
#include "src/dist/distributed_former.h"  // IWYU pragma: export
#include "src/dist/message.h"             // IWYU pragma: export
#include "src/dist/shard_plan.h"          // IWYU pragma: export
#include "src/dist/transport.h"           // IWYU pragma: export
#include "src/ext/balance_clustering.h"   // IWYU pragma: export
#include "src/ext/sign_prediction.h"      // IWYU pragma: export
#include "src/gen/generators.h"           // IWYU pragma: export
#include "src/graph/balance.h"            // IWYU pragma: export
#include "src/graph/bfs.h"                // IWYU pragma: export
#include "src/graph/components.h"         // IWYU pragma: export
#include "src/graph/diameter.h"           // IWYU pragma: export
#include "src/graph/graph_builder.h"      // IWYU pragma: export
#include "src/graph/graph_io.h"           // IWYU pragma: export
#include "src/graph/signed_graph.h"       // IWYU pragma: export
#include "src/graph/transform.h"          // IWYU pragma: export
#include "src/serve/admission_queue.h"    // IWYU pragma: export
#include "src/serve/server.h"             // IWYU pragma: export
#include "src/serve/types.h"              // IWYU pragma: export
#include "src/serve/workload.h"           // IWYU pragma: export
#include "src/skills/skill_generator.h"   // IWYU pragma: export
#include "src/skills/skills.h"            // IWYU pragma: export
#include "src/skills/skills_io.h"         // IWYU pragma: export
#include "src/team/cost.h"                // IWYU pragma: export
#include "src/team/exact.h"               // IWYU pragma: export
#include "src/team/greedy.h"              // IWYU pragma: export
#include "src/team/refine.h"              // IWYU pragma: export
#include "src/team/task_view.h"           // IWYU pragma: export
#include "src/team/unsigned_tf.h"         // IWYU pragma: export
#include "src/util/flags.h"               // IWYU pragma: export
#include "src/util/fnv1a.h"               // IWYU pragma: export
#include "src/util/latency_histogram.h"   // IWYU pragma: export
#include "src/util/parallel.h"            // IWYU pragma: export
#include "src/util/rng.h"                 // IWYU pragma: export
#include "src/util/status.h"              // IWYU pragma: export
#include "src/util/table.h"               // IWYU pragma: export
#include "src/util/timer.h"               // IWYU pragma: export
#include "src/util/zipf.h"                // IWYU pragma: export
