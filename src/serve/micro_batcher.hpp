// Forwarding header: ServeScore and ScoreReason live in
// serve/serve_score.hpp.
#pragma once

#include "serve/serve_score.hpp"
