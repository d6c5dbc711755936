// Fixture: bench-include (a test including a bench/ header).
#include "bench/bench_common.hpp"

int main() { return 0; }
