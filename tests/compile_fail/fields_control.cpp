// Control for fields_missing.cpp: the same struct and list, with every
// member named. MUST compile under the tree's warning flags — proving the
// negative fails for its count, not for a broken include path or flag set.
#include "dtnsim/util/fields.hpp"

namespace probe {

struct Ring {
  std::string model;
  int descriptors = 1024;
  double drain_bps = 42e9;
};

template <class V>
constexpr void fields(V& v, Ring& r) {
  v("model", r.model, dtnsim::wire::unkeyed);
  v("descriptors", r.descriptors);
  v("drain_bps", r.drain_bps);
}
static_assert(dtnsim::wire::field_count<Ring>() == dtnsim::wire::member_count<Ring>());

}  // namespace probe

int main() { return 0; }
