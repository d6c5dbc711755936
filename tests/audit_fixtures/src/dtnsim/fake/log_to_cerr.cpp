// Fixture: iostream (library code writing to std::cerr).
#include <iostream>

namespace dtnsim::fake {

void warn(const char* what) { std::cerr << "warning: " << what << '\n'; }

}  // namespace dtnsim::fake
