// Self-test of perfbench/bench_math.h. Exits 1 on the first failed
// check; perfbench/run.py runs it after every build.
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_math.h"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    std::cerr << "FAIL: " << what << '\n';
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void test_median() {
  expect(near(perfbench::median({3.0}), 3.0), "median of one");
  expect(near(perfbench::median({5.0, 1.0, 3.0}), 3.0), "median odd");
  expect(near(perfbench::median({4.0, 1.0, 3.0, 2.0}), 2.5), "median even");
  bool threw = false;
  try {
    perfbench::median({});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "median of nothing throws");
}

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void test_tail() {
  using perfbench::tail_percentile;
  expect(!tail_percentile(one_to(19)).present, "19 samples: p50 leaves 9");
  const perfbench::Tail t20 = tail_percentile(one_to(20));
  expect(t20.present && near(t20.level, 50.0) && near(t20.value, 10.0),
         "20 samples: p50 = 10 with 10 beyond");
  const perfbench::Tail t100 = tail_percentile(one_to(100));
  expect(t100.present && near(t100.level, 90.0) && near(t100.value, 90.0),
         "100 samples: p90 = 90 with 10 beyond");
  const perfbench::Tail t1000 = tail_percentile(one_to(1000));
  expect(t1000.present && near(t1000.level, 99.0) &&
             near(t1000.value, 990.0),
         "1000 samples: p99");
  const perfbench::Tail t999 = tail_percentile(one_to(999));
  expect(t999.present && near(t999.level, 90.0),
         "999 samples: p99 leaves 9, so p90");
  expect(!tail_percentile({}).present, "no samples, no tail");
}

void test_percentile() {
  using perfbench::percentile;
  expect(near(percentile(one_to(100), 1.0), 1.0), "p1 of 100 is the minimum");
  expect(near(percentile(one_to(12), 1.0), 1.0), "p1 of 12 is the minimum");
  expect(near(percentile(one_to(1000), 1.0), 10.0), "p1 of 1000 = rank 10");
  expect(near(percentile(one_to(201), 1.0), 3.0), "p1 of 201 = rank 3");
  expect(near(percentile(one_to(20), 90.0), 18.0), "p90 of 20 = rank 18");
  expect(near(percentile({7.0}, 50.0), 7.0), "one sample");
  bool threw = false;
  try {
    percentile({}, 1.0);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "percentile of nothing throws");
}

void test_fail_rate() {
  expect(near(perfbench::fail_rate(0, 12), 0.0), "fail_rate 0/12");
  expect(near(perfbench::fail_rate(3, 12), 0.25), "fail_rate 3/12");
  bool threw = false;
  try {
    perfbench::fail_rate(0, 0);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "fail_rate of no passes throws");
}

void test_sanitize() {
  using perfbench::sanitize_kind;
  expect(sanitize_kind("AR(P)") == "AR_P", "AR(P)");
  expect(sanitize_kind("SLL(ARO)") == "SLL_ARO", "SLL(ARO)");
  expect(sanitize_kind("DLL(O)") == "DLL_O", "DLL(O)");
  expect(sanitize_kind("HASH") == "HASH", "HASH");
  expect(sanitize_kind("(a)--b()") == "a_b", "runs collapse, ends trimmed");
}

void test_digest() {
  // Published FNV-1a 64 test vectors.
  expect(perfbench::digest("") == "cbf29ce484222325", "fnv1a64 empty");
  expect(perfbench::digest("a") == "af63dc4c8601ec8c", "fnv1a64 a");
  expect(perfbench::compare_records("abc", "abc").empty(), "same records");
  expect(perfbench::compare_records("abd", "abc") ==
             "records differ at byte 2 (3 vs 3 bytes)",
         "first differing byte");
  expect(!perfbench::compare_records("ab", "abc").empty(), "prefix differs");
  expect(perfbench::compare_digest("a", "af63dc4c8601ec8c", 1).empty(),
         "digest match");
  expect(!perfbench::compare_digest("a", "af63dc4c8601ec8c", 2).empty(),
         "length mismatch");
  expect(!perfbench::compare_digest("b", "af63dc4c8601ec8c", 1).empty(),
         "digest mismatch");
}

}  // namespace

int main() {
  test_median();
  test_tail();
  test_percentile();
  test_fail_rate();
  test_sanitize();
  test_digest();
  if (failures != 0) {
    std::cerr << failures << " bench_math check(s) failed\n";
    return EXIT_FAILURE;
  }
  std::cout << "bench_math: all checks passed\n";
  return EXIT_SUCCESS;
}
