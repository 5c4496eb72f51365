// Deliberate-crash fixture for the flight recorder (run as a subprocess by
// test_metrics.cpp): enables the recorder, leaves a recognizable trail of
// span events plus one live registry counter, then aborts from inside a
// phase.  The SIGABRT handler must write a parseable dump naming the
// crashing phase.
#include <cstdlib>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"

int main() {
  using namespace ais;
  obs::init_from_env();  // AIS_FLIGHT_DIR from the test's environment
  obs::set_flight_enabled(true);
  obs::set_enabled(true);
  obs::Counter* heartbeat =
      obs::MetricRegistry::global().counter("fixture.heartbeat");
  heartbeat->add(41);
  { AIS_OBS_SPAN("fixture.warmup"); }
  AIS_OBS_SPAN("doomed.phase");
  heartbeat->add();
  std::abort();  // the span never closes; its 'B' event must be in the dump
}
