// Fixture: every line marked BAD must raise `os-sync`. The headers these
// constructs come from are left out: including them raises
// `banned-include` (bad_banned_include.cc).

std::mutex mu;                                 // BAD
std::recursive_mutex rmu;                      // BAD
std::condition_variable cv;                    // BAD
std::thread worker;                            // BAD
std::atomic<int> flag;                         // BAD
thread_local int cache = 0;                    // BAD
int e = pthread_mutex_lock(nullptr);           // BAD
