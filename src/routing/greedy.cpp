#include "routing/greedy.hpp"

#include "routing/generic.hpp"

namespace closfair {

MiddleAssignment greedy_routing(const ClosNetwork& net, const FlowSet& flows,
                                const std::vector<double>& demands) {
  return clos_middles(greedy_choice(net.topology(), candidate_paths(net, flows), demands));
}

}  // namespace closfair
