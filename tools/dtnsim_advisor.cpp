// dtnsim-advisor: audit a host/testbed configuration against the paper's
// §V recommendations.
//
//   $ dtnsim-advisor --testbed esnet --path "WAN 63ms"
//   $ dtnsim-advisor --stock          # what an untuned host looks like
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "dtnsim/cli/flags.hpp"
#include "dtnsim/core/dtnsim.hpp"

int main(int argc, char** argv) {
  using namespace dtnsim;

  std::string testbed = "esnet";
  std::string path_name;
  bool stock = false, dtn_use_case = false, help = false;
  const cli::FlagGroup flags{"", {
    {{"--testbed"}, "NAME", "amlight | amlight-baremetal | esnet | production\n(default esnet)",
     cli::set_text(testbed)},
    {{"--path"}, "NAME", "e.g. 'WAN 63ms' (default: testbed LAN)", cli::set_text(path_name)},
    {{"--stock"}, "", "audit an untuned host (stock tuning, kernel 5.15)", cli::set_true(stock)},
    {{"--dtn"}, "", "the parallel-stream DTN use case", cli::set_true(dtn_use_case)},
    {{"-h", "--help"}, "", "print this help and exit", cli::set_true(help)}}};
  const cli::Grammar grammar{
      "dtnsim-advisor — audit a host's tuning against the paper's recommendations", {flags},
      nullptr};
  const std::string error = cli::parse_args(grammar, {argv + 1, argv + argc});
  if (!error.empty() || help) {
    std::fputs(cli::usage(grammar, error).c_str(), error.empty() ? stdout : stderr);
    return error.empty() ? 0 : 2;
  }

  harness::Testbed tb;
  try {
    tb = harness::testbed_by_name(testbed);
  } catch (const std::invalid_argument& e) {  // no such testbed
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  if (stock) {
    tb.sender.tuning = host::TuningConfig::stock();
    tb.sender.kernel = kern::kernel_profile(kern::KernelVersion::V5_15);
  }
  net::PathSpec path;
  try {
    path = tb.path_named(path_name);
  } catch (const std::out_of_range& e) {  // no such path in the testbed
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  const auto advice = advise(tb.sender, path,
                             dtn_use_case ? UseCase::ParallelStreamDtn
                                          : UseCase::SingleFlowBenchmark,
                             tb.link_flow_control);
  std::printf("Host: %s (%s, kernel %s), path: %s\n\n%s", tb.sender.name.c_str(),
              tb.sender.cpu.model.c_str(), tb.sender.kernel.name.c_str(),
              path.name.c_str(), advice.to_string().c_str());
  return advice.has_critical() ? 1 : 0;
}
