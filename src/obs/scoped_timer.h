// Wall-clock phase timer for sim-phase profiling.
//
// The simulator's virtual clock measures cost-model time; this measures
// how long the host actually took to execute a phase (setup, protocol
// convergence, a query round), which is what the bench --json rows report
// alongside the simulated quantities.
#pragma once

#include <chrono>

namespace wsn::obs {

class ScopedTimer {
 public:
  using Clock = std::chrono::steady_clock;

  /// On destruction, stores elapsed milliseconds into `*out_ms`.
  explicit ScopedTimer(double* out_ms)
      : out_(out_ms), start_(Clock::now()) {}

  double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_)
        .count();
  }

  ~ScopedTimer() {
    if (out_ != nullptr) *out_ = elapsed_ms();
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  double* out_ = nullptr;
  Clock::time_point start_;
};

}  // namespace wsn::obs
