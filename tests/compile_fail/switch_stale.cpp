// MUST NOT COMPILE: a switch with a `default:` whose case names an
// enumerator scenario::EventKind does not have (a rename the switch
// missed). The default cannot excuse it: the label does not resolve.
// tests/CMakeLists.txt asserts failure.
#include "dtnsim/scenario/scenario.hpp"

using dtnsim::scenario::EventKind;

bool is_flow_churn(EventKind kind) {
  switch (kind) {
    case EventKind::FlowArrive:
    case EventKind::FlowChurn:
      return true;
    default:
      return false;
  }
}

int main() { return is_flow_churn(EventKind::LinkUp) ? 1 : 0; }
