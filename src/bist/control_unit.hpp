// BIST Control Unit (paper §3.1).
//
// "The Control Unit manages the test execution; by receiving and decoding
//  commands from the control signals, this module is able to manage the
//  test execution and the upload of the results."
// Three documented tasks: receive the number of patterns to apply, drive
// test_enable (start/stop + end-of-test indication), and select the result
// to be uploaded. The case study sizes the pattern counter at 12 bits
// (up to 4096 patterns) and the result-select signal at 2 bits.
#ifndef COREBIST_BIST_CONTROL_UNIT_HPP_
#define COREBIST_BIST_CONTROL_UNIT_HPP_

#include <cstdint>

namespace corebist {

/// Command opcodes decoded from the control signals (delivered through the
/// P1500 WCDR in the wrapped configuration).
enum class BistCommand : std::uint8_t {
  kNop = 0,
  kReset = 1,        // core + engine reset
  kLoadCount = 2,    // data = number of patterns to apply
  kStart = 3,        // assert test_enable, begin pattern application
  kStop = 4,         // abort
  kSelectResult = 5,  // data = MISR index for upload
  kReadStatus = 6,
};

class BistControlUnit {
 public:
  /// `counter_bits` sizes the pattern counter (12 in the case study).
  explicit BistControlUnit(int counter_bits = 12);

  void command(BistCommand cmd, std::uint16_t data = 0);

  /// One test clock. While test_enable is high the pattern counter advances;
  /// reaching the programmed count stops the test and raises end_test.
  void tick();

  [[nodiscard]] bool testEnable() const noexcept { return running_; }
  [[nodiscard]] bool endTest() const noexcept { return done_; }
  [[nodiscard]] std::uint16_t patternLimit() const noexcept { return limit_; }
  [[nodiscard]] std::uint8_t resultSelect() const noexcept { return select_; }
  [[nodiscard]] std::uint16_t maxPatterns() const noexcept {
    return static_cast<std::uint16_t>((1u << counter_bits_) - 1u);
  }

  /// Status word uploaded through the wrapper WDR:
  /// bit0 = running, bit1 = end_test, bits 2..3 = result select,
  /// bits 4..15 = pattern counter (truncated to counter_bits).
  [[nodiscard]] std::uint32_t statusWord() const noexcept;

 private:
  int counter_bits_;
  std::uint16_t limit_ = 0;
  std::uint16_t counter_ = 0;
  std::uint8_t select_ = 0;
  bool running_ = false;
  bool done_ = false;
};

}  // namespace corebist

#endif  // COREBIST_BIST_CONTROL_UNIT_HPP_
