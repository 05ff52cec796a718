#include "obs/options.hh"

#include <mutex>

namespace mcmgpu {
namespace obs {

namespace {

std::mutex &
optMutex()
{
    static std::mutex mu;
    return mu;
}

Options &
optSlot()
{
    static Options opt;
    return opt;
}

} // namespace

Options
options()
{
    std::lock_guard<std::mutex> lk(optMutex());
    return optSlot();
}

void
setOptions(const Options &opt)
{
    std::lock_guard<std::mutex> lk(optMutex());
    optSlot() = opt;
}

} // namespace obs
} // namespace mcmgpu
