/**
 * @file
 * PredictOracle: the old name of a PREDICT-kind RemoteOracle (see
 * remote_oracle.hh). New code uses RemoteOracle; this alias stays
 * only until the end-to-end benchmark harness (e2ebench/) moves off
 * it in a change to that benchmark, and is then deleted.
 */

#ifndef PPM_SERVE_PREDICT_ORACLE_HH
#define PPM_SERVE_PREDICT_ORACLE_HH

#include "serve/remote_oracle.hh"

namespace ppm::serve {

using PredictOracle = RemoteOracle;

} // namespace ppm::serve

#endif // PPM_SERVE_PREDICT_ORACLE_HH
