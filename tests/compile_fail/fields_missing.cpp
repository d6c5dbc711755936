// MUST NOT COMPILE: a member (drain_bps) added to a struct without an entry
// in its fields() list. The static_assert beside every list compares the
// members the list names with the struct's aggregate member count, so the
// build stops at the list instead of the sweep cache key silently leaving
// the knob out. tests/CMakeLists.txt asserts failure.
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
}
static_assert(dtnsim::wire::field_count<Ring>() == dtnsim::wire::member_count<Ring>());

}  // namespace probe

int main() { return 0; }
