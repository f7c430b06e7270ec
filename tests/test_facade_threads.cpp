// The blocking and coroutine facades' multi-threaded cases over LscqQueue.
// The eventcount handshake, the waiter stacks and close() are the same
// code over every base; LSCQ's hot paths carry no cmpxchg16b, so this
// instantiation is the one the tsan build row can instrument (the LCRQ
// instantiations live in test_shutdown_and_blocking and test_async_queue).
#include "facade_thread_cases.hpp"
#include "queues/lscq.hpp"

namespace lcrq::test {
INSTANTIATE_TYPED_TEST_SUITE_P(Lscq, BlockingThreads, LscqQueue);
INSTANTIATE_TYPED_TEST_SUITE_P(Lscq, AsyncThreads, LscqQueue);
}  // namespace lcrq::test
