// thread_name.h — thread naming shared by every component that owns threads
// (util::ThreadPool workers, serve::Server replicas).
//
// Naming shows up in debuggers, `top -H` and perf profiles, which is how the
// serving benches attribute time between pool workers ("teal-pool/N") and
// serving replicas ("teal-serve/N").
#pragma once

#include <cstddef>
#include <string>

namespace teal::util {

// Names the calling thread "<prefix>/<index>" (truncated to the platform
// limit — 15 visible chars on Linux). No-op on platforms without
// pthread_setname_np. The untruncated name is kept thread-locally and
// returned by current_thread_name() so callers (and tests) can read it back
// without a platform API.
void set_current_thread_name(const char* prefix, std::size_t index);

// Full (untruncated) name set via set_current_thread_name for this thread;
// empty string if it was never named.
const std::string& current_thread_name();

}  // namespace teal::util
