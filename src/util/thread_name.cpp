#include "util/thread_name.h"

#if defined(__linux__)
#include <pthread.h>
#endif

namespace teal::util {

namespace {
thread_local std::string t_thread_name;
}  // namespace

void set_current_thread_name(const char* prefix, std::size_t index) {
  t_thread_name = std::string(prefix) + "/" + std::to_string(index);
#if defined(__linux__)
  // Linux caps thread names at 16 bytes including the terminator; keep the
  // index visible by truncating the prefix, not the suffix.
  const std::string suffix = "/" + std::to_string(index);
  std::string short_name(prefix);
  const std::size_t limit = 15;
  if (short_name.size() + suffix.size() > limit) {
    short_name.resize(limit > suffix.size() ? limit - suffix.size() : 0);
  }
  short_name += suffix;
  pthread_setname_np(pthread_self(), short_name.c_str());
#endif
}

const std::string& current_thread_name() { return t_thread_name; }

}  // namespace teal::util
