// dtnsim-iperf3: iperf3-flag-compatible command-line driver.
//
//   $ dtnsim-iperf3 --testbed amlight --path "WAN 104ms" -Z --fq-rate 50G
//         --optmem 3405376 --repeats 10          (one command line)
//   $ dtnsim-iperf3 --testbed esnet -P 8 --fq-rate 15G --kernel 5.15 -J
#include <cstdio>
#include <string>
#include <vector>

#include "dtnsim/cli/cli.hpp"

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  const auto opts = dtnsim::cli::parse_cli(args);
  std::string output;
  const int code = dtnsim::cli::run_cli(opts, output);
  std::fputs(output.c_str(), code == 0 ? stdout : stderr);
  return code;
}
