#include "oms/mapping/hierarchy.hpp"

#include "oms/util/sequence.hpp"

namespace oms {

SystemHierarchy::SystemHierarchy(std::vector<std::int64_t> extents,
                                 std::vector<std::int64_t> distances)
    : extents_(std::move(extents)), distances_(std::move(distances)) {
  OMS_ASSERT_MSG(!extents_.empty(), "hierarchy needs at least one level");
  OMS_ASSERT_MSG(extents_.size() == distances_.size(),
                 "one distance per hierarchy level");
  prefix_products_.resize(extents_.size() + 1);
  prefix_products_[0] = 1;
  for (std::size_t i = 0; i < extents_.size(); ++i) {
    OMS_ASSERT_MSG(extents_[i] >= 1, "hierarchy extents must be >= 1");
    OMS_ASSERT_MSG(distances_[i] > 0, "hierarchy distances must be positive");
    prefix_products_[i + 1] = prefix_products_[i] * extents_[i];
  }
  const std::int64_t k = prefix_products_.back();
  OMS_ASSERT_MSG(k >= 1 && k <= (std::int64_t{1} << 30), "unreasonable PE count");
  num_pes_ = static_cast<BlockId>(k);
  // Every module size divides k <= 2^30, so PE ids and divisors fit 32 bits.
  for (const std::int64_t size : prefix_products_) {
    module_div_.push_back(FastDiv32::of(static_cast<std::uint32_t>(size)));
  }
}

SystemHierarchy SystemHierarchy::parse(const std::string& extents,
                                       const std::string& distances) {
  return SystemHierarchy(parse_sequence(extents), parse_sequence(distances));
}

std::vector<std::int64_t> SystemHierarchy::extents_top_down() const {
  return {extents_.rbegin(), extents_.rend()};
}

std::string SystemHierarchy::to_string() const {
  return "S=" + format_sequence(extents_) + " D=" + format_sequence(distances_);
}

} // namespace oms
