// Round/message/bit accounting shared by all model simulators.
#pragma once

#include <algorithm>
#include <cstdint>

namespace dcolor::congest {

struct Metrics {
  std::int64_t rounds = 0;
  std::int64_t messages = 0;
  std::int64_t total_bits = 0;
  int max_message_bits = 0;

  void merge(const Metrics& o) {
    rounds += o.rounds;
    messages += o.messages;
    total_bits += o.total_bits;
    max_message_bits = std::max(max_message_bits, o.max_message_bits);
  }

  // Folds in a run that executed concurrently on disjoint nodes (another
  // connected component): rounds are the max, traffic adds up.
  void merge_parallel(const Metrics& o) {
    rounds = std::max(rounds, o.rounds);
    messages += o.messages;
    total_bits += o.total_bits;
    max_message_bits = std::max(max_message_bits, o.max_message_bits);
  }
};

}  // namespace dcolor::congest
