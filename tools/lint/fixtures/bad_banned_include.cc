// Fixture: every line marked BAD must raise `banned-include` (and the
// <random>/<chrono> lines additionally carry no other code, so no second
// rule fires on them).
#include <random>      // BAD
#include <chrono>      // BAD
#include <ctime>       // BAD
#include <sys/time.h>  // BAD
#include <time.h>      // BAD
#include <mutex>               // BAD
#include <shared_mutex>        // BAD
#include <thread>              // BAD
#include <condition_variable>  // BAD
#include <atomic>              // BAD
#include <pthread.h>           // BAD
