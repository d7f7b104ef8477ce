// The one list of engine spec families (the seam of core/spec_family.hpp):
// core's backends, then the scatter/gather families of the serving and
// network layers. It lives outside core/ so the engine never includes the
// layers built on top of it.
#include "core/spec_family.hpp"
#include "net/cluster/cluster_serving.hpp"
#include "serving/sharded_matrix.hpp"

namespace gcm {

const std::vector<SpecFamily>& SpecFamilies() {
  static const std::vector<SpecFamily> families = [] {
    std::vector<SpecFamily> all = CoreSpecFamilies();
    all.push_back(ShardedSpecFamily());
    all.push_back(ClusterSpecFamily());
    return all;
  }();
  return families;
}

}  // namespace gcm
