/**
 * @file
 * Contract fixture for R8 lock-discipline. The check must report
 * exactly the lines marked with a rule (expect_contract_findings.cmake);
 * compiled in src/sweep/, none.
 */

#include <atomic>
#include <mutex>

namespace mtlbsim
{

using Counter = std::atomic<int>;

struct Pool
{
    std::mutex lock_; // R8 unless src/sweep/
    Counter hits_{0}; // R8 unless src/sweep/
    int plain_ = 0;
};

int
drain(Pool &pool,
      std::atomic<int> &pending) // R8 unless src/sweep/
{
    std::lock_guard<std::mutex> guard(pool.lock_); // R8 unless src/sweep/
    std::atomic<int> local{pool.plain_}; // R8 unless src/sweep/
    // A fence declares nothing, and a release fence emits no code: the
    // check reads the always-inlined call.
    using enum std::memory_order;
    std::atomic_thread_fence(release); // R8 unless src/sweep/
    std::atomic_thread_fence(seq_cst); // R8 unless src/sweep/
    return pool.hits_.load() + pending.load() + local.load();
}

} // namespace mtlbsim
