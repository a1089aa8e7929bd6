// util::Fifo: the grow-only ring that holds the DES's packet and run queues.
// It must behave exactly like a std::deque used as a queue, across wrap-
// around and growth while wrapped, and release what it pops.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <utility>

#include "util/fifo.hpp"
#include "util/rng.hpp"

using mflow::util::Fifo;

TEST(Fifo, MatchesDequeAcrossWrapAndGrowth) {
  Fifo<std::uint64_t> fifo;
  std::deque<std::uint64_t> model;
  mflow::util::Rng rng(3);
  std::uint64_t next = 0;
  for (int step = 0; step < 100'000; ++step) {
    // Bias towards pushes early and pops late, so the ring grows while its
    // head sits mid-array and later drains back to empty.
    const bool push = model.empty() ||
                      rng.uniform(100) < (step < 50'000 ? 60u : 40u);
    if (push) {
      fifo.push_back(next);
      model.push_back(next);
      ++next;
    } else {
      ASSERT_EQ(fifo.front(), model.front()) << "step " << step;
      fifo.pop_front();
      model.pop_front();
    }
    ASSERT_EQ(fifo.size(), model.size()) << "step " << step;
    ASSERT_EQ(fifo.empty(), model.empty()) << "step " << step;
    if (!model.empty()) {
      ASSERT_EQ(std::as_const(fifo).back(), model.back()) << "step " << step;
    }
  }
}

TEST(Fifo, PopReleasesOwnedElements) {
  Fifo<std::shared_ptr<int>> fifo;
  for (int i = 0; i < 40; ++i) fifo.push_back(std::make_shared<int>(i));
  for (int i = 0; i < 40; ++i) {
    const std::weak_ptr<int> watch = fifo.front();
    ASSERT_EQ(*fifo.front(), i);
    fifo.pop_front();
    EXPECT_TRUE(watch.expired()) << i;  // the vacated slot let go of it
  }
  EXPECT_TRUE(fifo.empty());
}
