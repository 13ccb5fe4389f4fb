#include "obs/trace_span.hh"

namespace ppm::obs {

void
reconfigureFromEnv()
{
    EventLog::instance().configureFromEnv();
    traceConfigureFromEnv();
}

} // namespace ppm::obs
