// Control for the switch compile-fail checks: the same switch over
// scenario::EventKind as switch_missing.cpp, with every enumerator handled.
// MUST compile under the tree's warning flags — proving the negatives fail
// for the switch, not for a broken include path or flag set.
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
    case EventKind::FlowDepart:
      return true;
  }
  return false;
}

int main() { return is_flow_churn(EventKind::LinkUp) ? 1 : 0; }
