// Fixture: raw-process — a bare fork(2) in the single-process engine.
#include <unistd.h>

namespace ldlb {

int spawn_unaudited() { return static_cast<int>(fork()); }

}  // namespace ldlb
