// dtnsim public API.
//
// One include gives you the full library:
//
//   #include "dtnsim/core/dtnsim.hpp"
//
//   auto tb = dtnsim::harness::amlight();
//   auto result = dtnsim::Experiment(tb)
//                     .path("WAN 104ms")
//                     .zerocopy(true)
//                     .pacing(units::Rate::from_gbps(50))
//                     .repeats(10)
//                     .run();
//   std::cout << result.avg_gbps << " Gbps\n";
//
// Lower layers (cpu, kern, net, tcp, host, flow, app, harness) are included
// for advanced composition; Experiment and TuningAdvisor are the intended
// entry points.
#pragma once

#include "dtnsim/app/iperf.hpp"
#include "dtnsim/core/advisor.hpp"
#include "dtnsim/core/experiment.hpp"
#include "dtnsim/cpu/cost_model.hpp"
#include "dtnsim/flow/transfer.hpp"
#include "dtnsim/harness/runner.hpp"
#include "dtnsim/harness/testbeds.hpp"
#include "dtnsim/host/host.hpp"
#include "dtnsim/host/vm.hpp"
#include "dtnsim/kern/gro.hpp"
#include "dtnsim/kern/gso.hpp"
#include "dtnsim/kern/skb.hpp"
#include "dtnsim/kern/sysctl.hpp"
#include "dtnsim/kern/version.hpp"
#include "dtnsim/kern/zc_socket.hpp"
#include "dtnsim/net/nic.hpp"
#include "dtnsim/net/path.hpp"
#include "dtnsim/net/qdisc.hpp"
#include "dtnsim/obs/metrics.hpp"
#include "dtnsim/obs/probe.hpp"
#include "dtnsim/obs/telemetry.hpp"
#include "dtnsim/obs/trace.hpp"
#include "dtnsim/sim/engine.hpp"
#include "dtnsim/sweep/cache.hpp"
#include "dtnsim/sweep/campaign.hpp"
#include "dtnsim/sweep/grid.hpp"
#include "dtnsim/sweep/pool.hpp"
#include "dtnsim/tcp/bbr.hpp"
#include "dtnsim/tcp/cc.hpp"
#include "dtnsim/tcp/cubic.hpp"
#include "dtnsim/units/units.hpp"
#include "dtnsim/util/csv.hpp"
#include "dtnsim/util/json.hpp"
#include "dtnsim/util/log.hpp"
#include "dtnsim/util/stats.hpp"
#include "dtnsim/util/strfmt.hpp"
#include "dtnsim/util/table.hpp"
