#include "verify/lin_check.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace lcrq::verify {

namespace {

std::string describe(const Operation& op) {
    std::ostringstream os;
    if (op.kind == Operation::Kind::kEnqueue) {
        os << "enq(" << op.value << ")";
    } else if (op.value == kEmpty) {
        os << "deq()=EMPTY";
    } else {
        os << "deq()=" << op.value;
    }
    os << " by thread " << op.thread << " @[" << op.invoke << "," << op.response << "]";
    return os.str();
}

struct ValueOps {
    const Operation* enq = nullptr;
    const Operation* deq = nullptr;
};

struct Item {
    const Operation* enq;
    const Operation* deq;  // null if never dequeued
};

// V1–V3 plus the per-value index both fast checkers sweep from.
CheckResult collect_values(const History& history,
                           std::unordered_map<value_t, ValueOps>& values) {
    values.reserve(history.size());
    for (const auto& op : history) {
        if (op.kind == Operation::Kind::kEnqueue) {
            auto& v = values[op.value];
            if (v.enq != nullptr) {
                return {false, "duplicate enqueue of value (test bug): " + describe(op)};
            }
            v.enq = &op;
        } else if (op.value != kEmpty) {
            auto& v = values[op.value];
            if (v.deq != nullptr) {
                return {false, "V2 duplication: value dequeued twice: " + describe(op) +
                                   " and " + describe(*v.deq)};
            }
            v.deq = &op;
        }
    }

    for (const auto& [val, ops] : values) {
        if (ops.deq != nullptr && ops.enq == nullptr) {
            return {false, "V1 invention: dequeued value never enqueued: " +
                               describe(*ops.deq)};
        }
        if (ops.deq != nullptr && ops.deq->response < ops.enq->invoke) {
            return {false, "V3 causality: " + describe(*ops.deq) +
                               " responded before " + describe(*ops.enq) + " was invoked"};
        }
    }
    return {};
}

constexpr std::uint64_t kInf = std::numeric_limits<std::uint64_t>::max();

// V4 sweep over one comparable item set.  Sort values by enq invoke; sweep
// a second cursor over values by enq response, maintaining the max
// dequeue-invoke (with +inf for never-dequeued values) among every value a
// whose enqueue responded before the current enqueue's invocation.  A
// dequeued value b violates FIFO iff that max exceeds deq(b)'s response.
// Per-lane mode calls this once per producer thread (only same-producer
// pairs are ordered there); total mode calls it once with everything.
CheckResult fifo_sweep(const std::vector<Item>& items) {
    std::vector<const Item*> by_invoke(items.size());
    std::vector<const Item*> by_response(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
        by_invoke[i] = &items[i];
        by_response[i] = &items[i];
    }
    std::sort(by_invoke.begin(), by_invoke.end(),
              [](const Item* a, const Item* b) { return a->enq->invoke < b->enq->invoke; });
    std::sort(by_response.begin(), by_response.end(), [](const Item* a, const Item* b) {
        return a->enq->response < b->enq->response;
    });

    std::uint64_t max_deq_invoke = 0;
    const Item* max_witness = nullptr;
    std::size_t cursor = 0;
    for (const Item* b : by_invoke) {
        while (cursor < by_response.size() &&
               by_response[cursor]->enq->response < b->enq->invoke) {
            const Item* a = by_response[cursor++];
            const std::uint64_t di = a->deq == nullptr ? kInf : a->deq->invoke;
            if (di > max_deq_invoke) {
                max_deq_invoke = di;
                max_witness = a;
            }
        }
        if (b->deq != nullptr && max_witness != nullptr &&
            max_deq_invoke > b->deq->response) {
            const Item* a = max_witness;
            std::string detail =
                a->deq == nullptr
                    ? std::string("which was never dequeued")
                    : "whose dequeue " + describe(*a->deq) + " had not been invoked";
            return {false, "V4 FIFO: " + describe(*b->deq) + " responded although " +
                               describe(*a->enq) + " preceded " + describe(*b->enq) +
                               " and " + detail};
        }
    }
    return {};
}

// V5 EMPTY soundness.  An EMPTY answer e is refuted by any value whose
// enqueue responded before e was invoked and whose dequeue (if any) was
// invoked after e responded: that value was in the queue for e's entire
// duration, leaving e no linearization point.  Same sweep structure as V4
// with the EMPTY ops standing in for the b-side.
CheckResult empty_sweep(const History& history, const std::vector<Item>& items) {
    std::vector<const Operation*> empties;
    for (const auto& op : history) {
        if (op.kind == Operation::Kind::kDequeue && op.value == kEmpty) {
            empties.push_back(&op);
        }
    }
    if (empties.empty()) return {};

    std::sort(empties.begin(), empties.end(),
              [](const Operation* a, const Operation* b) { return a->invoke < b->invoke; });
    std::vector<const Item*> by_response(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) by_response[i] = &items[i];
    std::sort(by_response.begin(), by_response.end(), [](const Item* a, const Item* b) {
        return a->enq->response < b->enq->response;
    });

    std::uint64_t max_deq_invoke = 0;
    const Item* max_witness = nullptr;
    std::size_t cursor = 0;
    for (const Operation* e : empties) {
        while (cursor < by_response.size() &&
               by_response[cursor]->enq->response < e->invoke) {
            const Item* a = by_response[cursor++];
            const std::uint64_t di = a->deq == nullptr ? kInf : a->deq->invoke;
            if (di > max_deq_invoke) {
                max_deq_invoke = di;
                max_witness = a;
            }
        }
        if (max_witness != nullptr && max_deq_invoke > e->response) {
            const Item* a = max_witness;
            std::string detail =
                a->deq == nullptr
                    ? std::string("was never dequeued")
                    : "was not dequeued until " + describe(*a->deq);
            return {false, "V5 EMPTY: " + describe(*e) + " although " +
                               describe(*a->enq) + " had completed and its value " +
                               detail};
        }
    }
    return {};
}

std::vector<Item> all_items(const std::unordered_map<value_t, ValueOps>& values) {
    std::vector<Item> items;
    items.reserve(values.size());
    for (const auto& [val, ops] : values) {
        if (ops.enq != nullptr) items.push_back({ops.enq, ops.deq});
    }
    return items;
}

}  // namespace

CheckResult check_queue_fast(const History& history) {
    std::unordered_map<value_t, ValueOps> values;
    if (auto r = collect_values(history, values); !r) return r;
    return fifo_sweep(all_items(values));
}

CheckResult check_queue_fast_per_lane(const History& history) {
    std::unordered_map<value_t, ValueOps> values;
    if (auto r = collect_values(history, values); !r) return r;
    const std::vector<Item> items = all_items(values);

    std::unordered_map<int, std::vector<Item>> by_producer;
    for (const Item& it : items) by_producer[it.enq->thread].push_back(it);
    for (const auto& [thread, group] : by_producer) {
        if (auto r = fifo_sweep(group); !r) return r;
    }
    return empty_sweep(history, items);
}

// ---------------------------------------------------------------------------
// Exact checker: a Wing & Gong search with memoization, against one FIFO
// sub-queue per slot.  A dequeue of v linearizes iff v heads the
// sub-queue of its slot; EMPTY linearizes iff every sub-queue is empty.
// The total-FIFO spec puts every operation on sub-queue 0; the per-lane
// spec gives each producer thread its own sub-queue (matching the
// multilane emptiness certification).
// ---------------------------------------------------------------------------

namespace {

struct SearchState {
    const History* ops;
    // Sub-queue per operation index: the one an enqueue feeds, or the one
    // a dequeue must pop from (unused for EMPTY).
    std::vector<std::size_t> slot;
    std::vector<bool> done;
    std::vector<std::deque<value_t>> queues;
    std::unordered_set<std::uint64_t> visited;
    std::size_t remaining;

    std::uint64_t key() const {
        // Hash (done bitmask, queue contents).  |ops| ≤ 64 so the mask
        // fits one word; combine with a rolling hash of the sub-queues in
        // order.  The mask fixes each sub-queue's length, so their
        // concatenation identifies the contents.
        std::uint64_t mask = 0;
        for (std::size_t i = 0; i < done.size(); ++i) {
            if (done[i]) mask |= std::uint64_t{1} << i;
        }
        std::uint64_t h = mask * 0x9e3779b97f4a7c15ULL;
        for (const auto& q : queues) {
            for (value_t v : q) {
                h ^= (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
            }
        }
        return h;
    }

    bool all_empty() const {
        for (const auto& q : queues) {
            if (!q.empty()) return false;
        }
        return true;
    }
};

bool search(SearchState& st) {
    if (st.remaining == 0) return true;
    if (!st.visited.insert(st.key()).second) return false;

    // Candidate set: pending operations invoked before the earliest
    // response among pending operations (those are the only ones that can
    // linearize first).
    std::uint64_t min_response = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t i = 0; i < st.ops->size(); ++i) {
        if (!st.done[i]) min_response = std::min(min_response, (*st.ops)[i].response);
    }

    for (std::size_t i = 0; i < st.ops->size(); ++i) {
        if (st.done[i]) continue;
        const Operation& op = (*st.ops)[i];
        if (op.invoke > min_response) continue;

        if (op.kind == Operation::Kind::kEnqueue) {
            st.done[i] = true;
            --st.remaining;
            st.queues[st.slot[i]].push_back(op.value);
            if (search(st)) return true;
            st.queues[st.slot[i]].pop_back();
            ++st.remaining;
            st.done[i] = false;
        } else if (op.value == kEmpty) {
            if (!st.all_empty()) continue;
            st.done[i] = true;
            --st.remaining;
            if (search(st)) return true;
            ++st.remaining;
            st.done[i] = false;
        } else {
            auto& q = st.queues[st.slot[i]];
            if (q.empty() || q.front() != op.value) continue;
            st.done[i] = true;
            --st.remaining;
            q.pop_front();
            if (search(st)) return true;
            q.push_front(op.value);
            ++st.remaining;
            st.done[i] = false;
        }
    }
    return false;
}

CheckResult too_long(const History& history) {
    return {false, "exact checker limited to 64 operations; got " +
                       std::to_string(history.size())};
}

// Whether `history` linearizes with operation i on sub-queue slot[i].
bool linearizable(const History& history, std::vector<std::size_t> slot,
                  std::size_t queues) {
    SearchState st;
    st.ops = &history;
    st.slot = std::move(slot);
    st.done.assign(history.size(), false);
    st.queues.resize(queues);
    st.remaining = history.size();
    return search(st);
}

}  // namespace

CheckResult check_queue_exact(const History& history) {
    if (history.size() > 64) return too_long(history);
    if (linearizable(history, std::vector<std::size_t>(history.size(), 0), 1)) return {};
    return {false, "no linearization of the history against the FIFO queue spec exists"};
}

CheckResult check_queue_exact_per_lane(const History& history) {
    if (history.size() > 64) return too_long(history);

    // Map producer threads to sub-queue slots and every op to its slot.
    std::unordered_map<int, std::size_t> thread_slot;
    std::unordered_map<value_t, std::size_t> value_slot;
    for (const auto& op : history) {
        if (op.kind != Operation::Kind::kEnqueue) continue;
        const auto [it, fresh] =
            thread_slot.emplace(op.thread, thread_slot.size());
        if (!value_slot.emplace(op.value, it->second).second) {
            return {false, "duplicate enqueue of value (test bug): " + describe(op)};
        }
    }

    std::vector<std::size_t> slot(history.size(), 0);
    for (std::size_t i = 0; i < history.size(); ++i) {
        const Operation& op = history[i];
        if (op.kind == Operation::Kind::kEnqueue) {
            slot[i] = value_slot.at(op.value);
        } else if (op.value != kEmpty) {
            const auto it = value_slot.find(op.value);
            if (it == value_slot.end()) {
                return {false, "V1 invention: dequeued value never enqueued: " +
                                   describe(op)};
            }
            slot[i] = it->second;
        }
    }
    if (linearizable(history, std::move(slot),
                     thread_slot.empty() ? 1 : thread_slot.size())) {
        return {};
    }
    return {false,
            "no linearization of the history against the per-producer FIFO "
            "queue spec exists"};
}

}  // namespace lcrq::verify
