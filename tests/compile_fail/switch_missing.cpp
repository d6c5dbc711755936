// MUST NOT COMPILE: a switch over scenario::EventKind that forgets
// FlowDepart and has no `default:`. -Werror=switch (the tree's warning
// flags) turns the missing enumerator into an error, so adding a kind can
// never silently skip an engine hook. tests/CMakeLists.txt asserts failure.
#include "dtnsim/scenario/scenario.hpp"

using dtnsim::scenario::EventKind;

bool is_flow_churn(EventKind kind) {
  switch (kind) {
    case EventKind::LinkCapacity:
    case EventKind::LinkAddRtt:
    case EventKind::LossBurst:
    case EventKind::ReorderBurst:
    case EventKind::LinkDown:
    case EventKind::LinkUp:
    case EventKind::BgSurge:
    case EventKind::NicRingResize:
    case EventKind::NicPauseToggle:
    case EventKind::IrqDrainDegrade:
    case EventKind::QdiscSwap:
    case EventKind::QdiscPacingRate:
    case EventKind::SysctlOptmem:
      return false;
    case EventKind::FlowArrive:
      return true;
  }
  return false;
}

int main() { return is_flow_churn(EventKind::LinkUp) ? 1 : 0; }
