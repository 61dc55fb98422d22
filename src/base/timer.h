// Wall-clock timing helpers for benchmarks and the pipeline's stage timings.
#ifndef SRC_BASE_TIMER_H_
#define SRC_BASE_TIMER_H_

#include <chrono>

namespace zkml {

class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}

  void Reset() { start_ = std::chrono::steady_clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  }

  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace zkml

#endif  // SRC_BASE_TIMER_H_
