// Sets or unsets one environment variable for a scope and restores its
// previous state on destruction, so a test cannot leak a ZERO_* knob
// into the next one (or inherit one from the shell).
#pragma once

#include <cstdlib>
#include <optional>
#include <string>

namespace zero::test {

class ScopedEnv {
 public:
  // value == nullptr unsets the variable for the scope.
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    Set(value);
  }
  ~ScopedEnv() { Set(old_ ? old_->c_str() : nullptr); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  void Set(const char* value) {
    if (value != nullptr) {
      setenv(name_.c_str(), value, 1);
    } else {
      unsetenv(name_.c_str());
    }
  }

  std::string name_;
  std::optional<std::string> old_;
};

}  // namespace zero::test
