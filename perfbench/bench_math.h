// The benchmark's own arithmetic, kept apart from the driver so that
// bench_math_test.cc can check it without building the product: medians,
// nearest-rank percentiles, the reported tail percentile, the failure
// rate, the kind-name sanitizer used in metric names and the
// record-digest comparison.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// Median as Python's statistics.median gives it: the middle sample, or
// the mean of the two middle samples for an even count.
inline double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median of no samples");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

// 1-based nearest rank of percentile `level` among `n` samples, at least
// 1; the epsilon keeps 90% of 20 at rank 18.
inline std::size_t nearest_rank(std::size_t n, double level) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(level / 100.0 * static_cast<double>(n) - 1e-9));
  return std::max<std::size_t>(1, std::min(rank, n));
}

// Nearest-rank percentile; at level 1 it is the minimum of up to 100
// samples.
inline double percentile(std::vector<double> samples, double level) {
  if (samples.empty()) throw std::invalid_argument("percentile of no samples");
  std::sort(samples.begin(), samples.end());
  return samples[nearest_rank(samples.size(), level) - 1];
}

// The highest percentile of {50, 90, 99, 99.9, 99.99} that has at least
// `min_beyond` samples strictly above its nearest rank. A tail read from
// fewer samples than that is noise, so a run with too few samples
// reports none (`present` false).
struct Tail {
  bool present = false;
  double level = 0.0;  // percentile, e.g. 99.0
  double value = 0.0;  // the sample at that nearest rank
};

inline Tail tail_percentile(std::vector<double> samples,
                            std::size_t min_beyond = 10) {
  static constexpr std::array<double, 5> kLevels = {99.99, 99.9, 99.0, 90.0,
                                                    50.0};
  Tail tail;
  const std::size_t n = samples.size();
  if (n == 0) return tail;
  std::sort(samples.begin(), samples.end());
  for (double level : kLevels) {
    const std::size_t rank = nearest_rank(n, level);
    if (n - rank < min_beyond) continue;
    tail.present = true;
    tail.level = level;
    tail.value = samples[rank - 1];
    return tail;
  }
  return tail;
}

// Failed passes over attempted passes.
inline double fail_rate(std::size_t failed, std::size_t attempted) {
  if (attempted == 0) throw std::invalid_argument("no passes attempted");
  if (failed > attempted) throw std::invalid_argument("failed > attempted");
  return static_cast<double>(failed) / static_cast<double>(attempted);
}

// Metric-name form of a DDT kind's canonical name: every run of
// characters outside [A-Za-z0-9] becomes one '_', and leading/trailing
// ones are dropped ("AR(P)" -> "AR_P", "SLL(ARO)" -> "SLL_ARO").
inline std::string sanitize_kind(std::string_view name) {
  std::string out;
  bool pending = false;
  for (char c : name) {
    const bool alnum = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                       (c >= '0' && c <= '9');
    if (!alnum) {
      pending = true;
      continue;
    }
    if (pending && !out.empty()) out.push_back('_');
    pending = false;
    out.push_back(c);
  }
  return out;
}

// 64-bit FNV-1a of a serialized record text, as 16 lowercase hex digits.
// The benchmark's own definition, so committed digests do not depend on
// any hashing helper of the product.
inline std::string digest(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

// Byte comparison of a record text against a reference: "" when they are
// identical, else a one-line diagnostic naming the first differing byte.
inline std::string compare_records(std::string_view got,
                                   std::string_view want) {
  if (got == want) return "";
  const std::size_t limit = std::min(got.size(), want.size());
  std::size_t at = 0;
  while (at < limit && got[at] == want[at]) ++at;
  return "records differ at byte " + std::to_string(at) + " (" +
         std::to_string(got.size()) + " vs " + std::to_string(want.size()) +
         " bytes)";
}

// Check of a record text against a committed digest and length.
inline std::string compare_digest(std::string_view text,
                                  std::string_view want_digest,
                                  std::size_t want_bytes) {
  const std::string got = digest(text);
  if (got == want_digest && text.size() == want_bytes) return "";
  return "digest " + got + "/" + std::to_string(text.size()) +
         " bytes, expected " + std::string(want_digest) + "/" +
         std::to_string(want_bytes) + " bytes";
}

}  // namespace perfbench
