#include "state/group_merge.h"

#include <algorithm>
#include <string_view>

#include "common/check.h"

namespace dcape {

int64_t CrossJoinGenerations(const PartitionGroup& older,
                             const PartitionGroup& newer,
                             const ResultProjection* projection,
                             std::vector<JoinResult>* results,
                             Tick window_ticks) {
  DCAPE_CHECK_EQ(older.partition(), newer.partition());
  DCAPE_CHECK_EQ(older.num_streams(), newer.num_streams());
  const int m = older.num_streams();
  DCAPE_CHECK_LE(m, 16);

  // Each side's keys per stream, once: the seed choice below compares
  // their counts and walks the smallest.
  std::vector<std::vector<JoinKey>> older_keys(static_cast<size_t>(m));
  std::vector<std::vector<JoinKey>> newer_keys(static_cast<size_t>(m));
  for (int s = 0; s < m; ++s) {
    older_keys[static_cast<size_t>(s)] = older.SortedKeysForStream(s);
    newer_keys[static_cast<size_t>(s)] = newer.SortedKeysForStream(s);
  }
  // Per-key scratch, reused across keys and masks: each stream's run of
  // the key (copied out of its side's arena) and the odometer.
  std::vector<std::vector<PartitionGroup::Row>> runs(static_cast<size_t>(m));
  std::vector<size_t> cursor(static_cast<size_t>(m), 0);
  JoinResult result;
  result.partition = older.partition();
  result.member_seqs.assign(static_cast<size_t>(m), 0);

  int64_t produced = 0;
  const uint32_t full = (1u << m) - 1;
  // Mask bit s set → stream s's member comes from `newer`.
  for (uint32_t mask = 1; mask < full; ++mask) {
    auto side = [&](int s) -> const PartitionGroup& {
      return ((mask >> s) & 1u) ? newer : older;
    };
    auto side_keys = [&](int s) -> const std::vector<JoinKey>& {
      return ((mask >> s) & 1u) ? newer_keys[static_cast<size_t>(s)]
                                : older_keys[static_cast<size_t>(s)];
    };
    // Iterate the keys of the smallest source stream among the mask's
    // designated sides.
    int seed_stream = 0;
    for (int s = 1; s < m; ++s) {
      if (side_keys(s).size() < side_keys(seed_stream).size()) seed_stream = s;
    }

    for (JoinKey key : side_keys(seed_stream)) {
      bool all_present = true;
      for (int s = 0; s < m && all_present; ++s) {
        std::vector<PartitionGroup::Row>& run = runs[static_cast<size_t>(s)];
        run.clear();
        side(s).ForEachRow(
            s, key, [&run](const PartitionGroup::Row& row, std::string_view) {
              run.push_back(row);
            });
        all_present = !run.empty();
      }
      if (!all_present) continue;

      result.join_key = key;
      std::fill(cursor.begin(), cursor.end(), 0);
      while (true) {
        int64_t agg = 0;
        bool first_member = true;
        Tick min_ts = 0;
        Tick max_ts = 0;
        bool first_ts = true;
        for (int s = 0; s < m; ++s) {
          const PartitionGroup::Row& member =
              runs[static_cast<size_t>(s)][cursor[static_cast<size_t>(s)]];
          result.member_seqs[static_cast<size_t>(s)] = member.seq;
          if (first_ts) {
            min_ts = max_ts = member.timestamp;
            first_ts = false;
          } else {
            min_ts = std::min(min_ts, member.timestamp);
            max_ts = std::max(max_ts, member.timestamp);
          }
          if (projection != nullptr) {
            if (s == projection->group_stream) {
              result.group_key = member.category;
            }
            agg = FoldAggregate(projection->op, agg, member.value,
                                first_member);
            first_member = false;
          }
        }
        if (window_ticks <= 0 || max_ts - min_ts <= window_ticks) {
          if (projection != nullptr) result.agg_value = agg;
          result.latest_member_ts = max_ts;
          if (results != nullptr) results->push_back(result);
          ++produced;
        }

        int s = m - 1;
        for (; s >= 0; --s) {
          size_t& c = cursor[static_cast<size_t>(s)];
          if (++c < runs[static_cast<size_t>(s)].size()) break;
          c = 0;
        }
        if (s < 0) break;
      }
    }
  }
  return produced;
}

}  // namespace dcape
