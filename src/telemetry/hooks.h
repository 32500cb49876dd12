// Hot-path instrumentation hooks.
//
// The hooks guard the code that runs once per statement or per task —
// counter increments in dbc::Connection and minidb's executor and
// lock-wait timing. Each is a single null check on the Recorder*, so a
// connection or executor with no recorder attached pays one predictable
// branch per hook.
//
// The structured per-round IterationStats recording and TaskSpan emission
// are not behind these macros: they run once per round or per task and are
// part of the execution API (RunStats::per_iteration(), ExecutionObserver).
#pragma once

#include "telemetry/recorder.h"

/// Adds `delta` to counter `name` on `rec` (a Recorder*, may be null).
#define SQLOOP_COUNT(rec, name, delta)            \
  do {                                            \
    if ((rec) != nullptr) (rec)->Add((name), (delta)); \
  } while (0)

/// Adds `seconds` to timer `name` on `rec` (a Recorder*, may be null).
#define SQLOOP_TIME_SECONDS(rec, name, seconds)           \
  do {                                                    \
    if ((rec) != nullptr) (rec)->AddSeconds((name), (seconds)); \
  } while (0)
