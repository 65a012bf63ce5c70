#ifndef MQA_MODEL_WORKER_H_
#define MQA_MODEL_WORKER_H_

#include <ostream>

#include "geo/bbox.h"
#include "model/types.h"

namespace mqa {

/// A dynamically moving worker (paper Def. 1). A *current* worker has a
/// deterministic location (point box); a *predicted* worker ŵ has a
/// uniform-kernel box as its location distribution (paper Section III-A).
struct Worker {
  WorkerId id = -1;

  /// Location (or location distribution) at the instance it is considered.
  BBox location;

  /// Travel speed v_i in data-space units per time unit.
  double velocity = 0.0;

  /// Instance at which the worker joined (or is predicted to join).
  Timestamp arrival = 0;

  /// True for predicted (future) workers ŵ_i.
  bool predicted = false;

  /// Representative point (center of the kernel box; the exact location
  /// for current workers).
  Point Center() const { return location.Center(); }
};

inline std::ostream& operator<<(std::ostream& os, const Worker& w) {
  return os << (w.predicted ? "ŵ" : "w") << w.id << "@" << w.location
            << " v=" << w.velocity;
}

}  // namespace mqa

#endif  // MQA_MODEL_WORKER_H_
