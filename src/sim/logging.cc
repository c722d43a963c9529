#include "sim/logging.hh"

#include <cstdio>
#include <cstdlib>

namespace tpv {
namespace detail {

void
panicImpl(const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

void
fatalImpl(const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    std::exit(1);
}

} // namespace detail
} // namespace tpv
