// Subcommands of tsclient, the benchmark's own C++ client. Each prints one
// JSON object on its last stdout line for run.py.
#pragma once

#include "util.hpp"

namespace tsb {

/// gen: writes a seeded synthetic ratings file.
int cmd_gen(const Args& args);
/// rmse: replays cumf_train's holdout split and recomputes the test RMSE
/// of a written model.
int cmd_rmse(const Args& args);
/// serve: one serving phase (open loop or saturation) over ServeEngine.
int cmd_serve(const Args& args);
/// layers: the traced run's per-layer replay of each module's calls.
int cmd_layers(const Args& args);

}  // namespace tsb
