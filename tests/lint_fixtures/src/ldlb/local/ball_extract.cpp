// Fixture: ball-extraction — a materialised ball outside view/ball and
// view/ball_store, where the lockstep (P1) check should be used instead.

namespace ldlb {

void peek(const Multigraph& g) { Ball b = extract_ball(g, 0, 2); }

}  // namespace ldlb
