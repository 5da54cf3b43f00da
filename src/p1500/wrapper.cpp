#include "p1500/wrapper.hpp"

#include <stdexcept>
#include <string>

namespace corebist {

namespace {
/// Shift a register toward WSO (LSB-first): returns the outgoing bit.
bool shiftReg(std::vector<bool>& reg, bool wsi) {
  const bool out = reg.front();
  for (std::size_t i = 0; i + 1 < reg.size(); ++i) reg[i] = reg[i + 1];
  reg.back() = wsi;
  return out;
}

std::uint32_t regValue(const std::vector<bool>& reg) {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < reg.size(); ++i) {
    if (reg[i]) v |= 1u << i;
  }
  return v;
}

void loadReg(std::vector<bool>& reg, std::uint64_t value) {
  for (std::size_t i = 0; i < reg.size(); ++i) {
    reg[i] = ((value >> i) & 1u) != 0;
  }
}
}  // namespace

P1500Wrapper::P1500Wrapper(int wbr_bits, Hooks hooks)
    : hooks_(std::move(hooks)),
      wir_shift_(kWirBits, false),
      wcdr_shift_(kWcdrBits, false),
      wdr_shift_(kWdrBits, false),
      wbr_shift_(static_cast<std::size_t>(wbr_bits), false),
      child_sel_shift_(kChildSelBits, false) {
  if (wbr_bits < 1) throw std::invalid_argument("P1500Wrapper: WBR empty");
}

int P1500Wrapper::attachChild(P1500Wrapper* child) {
  if (child == nullptr) {
    throw std::invalid_argument("P1500Wrapper: null child wrapper");
  }
  if (child == this || child->inSubtree(this)) {
    throw std::invalid_argument(
        "P1500Wrapper: attaching this child would create a wrapper cycle");
  }
  for (const P1500Wrapper* c : children_) {
    if (c == child || c->inSubtree(child)) {
      throw std::invalid_argument(
          "P1500Wrapper: child wrapper already attached in this chain");
    }
  }
  if (children_.size() >= (std::size_t{1} << kChildSelBits)) {
    throw std::invalid_argument(
        "P1500Wrapper: child chain full (WS_CHILD_SEL is " +
        std::to_string(kChildSelBits) + " bits)");
  }
  children_.push_back(child);
  return static_cast<int>(children_.size()) - 1;
}

P1500Wrapper* P1500Wrapper::selectedChild() const {
  if (child_sel_ < 0 ||
      static_cast<std::size_t>(child_sel_) >= children_.size()) {
    return nullptr;
  }
  return children_[static_cast<std::size_t>(child_sel_)];
}

bool P1500Wrapper::inSubtree(const P1500Wrapper* w) const {
  if (w == this) return true;
  for (const P1500Wrapper* c : children_) {
    if (c->inSubtree(w)) return true;
  }
  return false;
}

void P1500Wrapper::reset() {
  instr_ = WirInstruction::kWsBypass;
  std::fill(wir_shift_.begin(), wir_shift_.end(), false);
  std::fill(wcdr_shift_.begin(), wcdr_shift_.end(), false);
  std::fill(wdr_shift_.begin(), wdr_shift_.end(), false);
  std::fill(wbr_shift_.begin(), wbr_shift_.end(), false);
  std::fill(child_sel_shift_.begin(), child_sel_shift_.end(), false);
  wby_ = false;
  child_sel_ = -1;
  for (P1500Wrapper* c : children_) c->reset();
}

int P1500Wrapper::selectedLength(bool select_wir) const {
  if (select_wir) return kWirBits;
  switch (instr_) {
    case WirInstruction::kWsBypass:
      return 1;
    case WirInstruction::kWsExtest:
    case WirInstruction::kWsIntest:
      return static_cast<int>(wbr_shift_.size());
    case WirInstruction::kWsCdr:
      return kWcdrBits;
    case WirInstruction::kWsDr:
      return kWdrBits;
    case WirInstruction::kWsChildSel:
      return kChildSelBits;
    case WirInstruction::kWsChildWir: {
      const P1500Wrapper* c = selectedChild();
      return c != nullptr ? c->selectedLength(true) : 1;
    }
    case WirInstruction::kWsChildDr: {
      const P1500Wrapper* c = selectedChild();
      return c != nullptr ? c->selectedLength(false) : 1;
    }
  }
  return 1;
}

bool P1500Wrapper::cycle(const WscSignals& wsc, bool wsi) {
  bool wso = false;
  if (wsc.select_wir) {
    if (wsc.capture) {
      // 1500 convention: capture a fixed 01 pattern for chain integrity.
      loadReg(wir_shift_, 0b001u);
    } else if (wsc.shift) {
      wso = shiftReg(wir_shift_, wsi);
    } else if (wsc.update) {
      // Every 3-bit code is defined now that 5..7 address the child chain.
      instr_ = static_cast<WirInstruction>(regValue(wir_shift_) & 0x7u);
    }
    return wso;
  }

  switch (instr_) {
    case WirInstruction::kWsBypass:
      if (wsc.shift) {
        wso = wby_;
        wby_ = wsi;
      }
      break;
    case WirInstruction::kWsExtest:
    case WirInstruction::kWsIntest:
      if (wsc.capture) {
        const std::uint64_t snap =
            hooks_.capture_inputs ? hooks_.capture_inputs() : 0u;
        loadReg(wbr_shift_, snap);
      } else if (wsc.shift) {
        wso = shiftReg(wbr_shift_, wsi);
      }
      break;
    case WirInstruction::kWsCdr:
      if (wsc.shift) {
        wso = shiftReg(wcdr_shift_, wsi);
      } else if (wsc.update) {
        const std::uint32_t v = regValue(wcdr_shift_);
        const auto cmd = static_cast<BistCommand>(v & 0x7u);
        const auto data = static_cast<std::uint16_t>((v >> 3) & 0xFFFFu);
        if (hooks_.command) hooks_.command(cmd, data);
      }
      break;
    case WirInstruction::kWsDr:
      if (wsc.capture) {
        const std::uint32_t v = hooks_.read_data ? hooks_.read_data() : 0u;
        loadReg(wdr_shift_, v & 0xFFFFu);
      } else if (wsc.shift) {
        wso = shiftReg(wdr_shift_, wsi);
      }
      break;
    case WirInstruction::kWsChildSel:
      if (wsc.capture) {
        loadReg(child_sel_shift_, static_cast<unsigned>(child_sel_));
      } else if (wsc.shift) {
        wso = shiftReg(child_sel_shift_, wsi);
      } else if (wsc.update) {
        const std::uint32_t v = regValue(child_sel_shift_);
        if (v < children_.size()) child_sel_ = static_cast<int>(v);
      }
      break;
    case WirInstruction::kWsChildWir:
    case WirInstruction::kWsChildDr:
      if (P1500Wrapper* c = selectedChild()) {
        // The parent is a plain wire while forwarding: the child register
        // sits directly between this wrapper's WSI and WSO.
        const bool to_child_wir = instr_ == WirInstruction::kWsChildWir;
        wso = c->cycle(WscSignals{to_child_wir, wsc.capture, wsc.shift,
                                  wsc.update},
                       wsi);
      } else if (wsc.shift) {
        wso = wby_;  // no child routed: degrade to the 1-bit bypass
        wby_ = wsi;
      }
      break;
  }
  return wso;
}

}  // namespace corebist
