// lcs-long: one longest-common-subsequence alignment of two seeded random
// 4-letter sequences, run as the library's 1D depth-2 stencil (t = i + j,
// x = i).  Integer, branchy and compute-bound on 240 KiB of state; its 1D
// hyperspace cuts give only 3-way parallelism, and its checkpoints are tiny.
#include <algorithm>

#include "stencils/lcs.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct LcsLong {
  using Cell = pc::stencils::LcsCell;
  static constexpr int kDims = 1;
  static constexpr int kDepth = 2;
  static constexpr const char* kName = "lcs-long";
  static constexpr std::int64_t kSlabs = 4;
  static constexpr std::int64_t kKillAfterSlab = 1;
  static constexpr Reps kReps{1, 2, 1, 2, 3};
  static constexpr std::int64_t kN = 20000;

  struct Input {
    std::vector<int> a, b;
  };
  /// The cells of the last two antidiagonals that lie inside the DP table.
  struct Expected {
    Cell length = 0;    ///< L[n][n]
    Cell above = 0;     ///< L[n-1][n]
    Cell left = 0;      ///< L[n][n-1]
  };

  static std::vector<int> sequence(std::uint64_t seed, std::int64_t n) {
    std::vector<int> s(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < s.size(); ++i) {
      s[i] = static_cast<int>(mix64(seed ^ mix64(i)) & 3u);
    }
    return s;
  }
  static std::vector<Input> make_inputs(std::uint64_t seed) {
    return {{sequence(mix64(seed ^ 0x41ull), kN), sequence(mix64(seed ^ 0x42ull), kN)}};
  }
  static std::int64_t n_of(const Input& in) { return static_cast<std::int64_t>(in.a.size()); }
  static std::array<std::int64_t, 1> extents(const Input& in) { return {n_of(in) + 1}; }
  static std::int64_t steps(const Input& in) { return 2 * n_of(in) - 1; }
  static std::int64_t grid_points(const Input& in) { return n_of(in) + 1; }
  static pc::Shape<1> shape() { return pc::stencils::lcs_shape(); }
  static pc::BoundaryFn<Cell, 1> boundary() { return pc::zero_boundary<Cell, 1>(); }
  static auto kernel(const Input& in) { return pc::stencils::lcs_kernel(in.a, in.b); }
  /// Antidiagonals 0 and 1 hold only DP borders, which are 0.
  static void init(const Input& in, pc::Array<Cell, 1>& g) {
    for (std::int64_t x = 0; x <= n_of(in); ++x) {
      g.at(0, {x}) = 0;
      g.at(1, {x}) = 0;
    }
  }

  /// Row-by-row DP over two rows, written here rather than taken from the
  /// library; the row before the last is kept for L[n-1][n].
  static Expected oracle(const Input& in) {
    const std::size_t n = in.a.size();
    std::vector<Cell> prev(n + 1, 0), cur(n + 1, 0);
    Expected e;
    for (std::size_t i = 1; i <= n; ++i) {
      const int ai = in.a[i - 1];
      cur[0] = 0;
      for (std::size_t j = 1; j <= n; ++j) {
        cur[j] = ai == in.b[j - 1] ? prev[j - 1] + 1 : std::max(prev[j], cur[j - 1]);
      }
      if (i == n) e.above = prev[n];
      prev.swap(cur);
    }
    e.length = prev[n];
    e.left = prev[n - 1];
    return e;
  }

  static std::vector<Check> check(const Input& in, const Expected& e,
                                  pc::Array<Cell, 1>& g, std::int64_t t) {
    const std::int64_t n = n_of(in);
    // Antidiagonal t = 2n holds only L[n][n] (x = n); t - 1 holds
    // L[n-1][n] at x = n-1 and L[n][n-1] at x = n.  Every other cell lies
    // outside the table and must be 0.
    std::int64_t mismatches = 0;
    for (std::int64_t x = 0; x <= n; ++x) {
      const Cell want_t = x == n ? e.length : 0;
      const Cell want_prev = x == n ? e.left : x == n - 1 ? e.above : 0;
      mismatches += (g.at(t, {x}) != want_t) + (g.at(t - 1, {x}) != want_prev);
    }
    const Cell length = g.at(t, {n});
    const std::string got = "L = " + std::to_string(length) + ", oracle " +
                            std::to_string(e.length) + ", n = " + std::to_string(n);
    return {
        {"oracle", mismatches == 0, std::to_string(mismatches) + " cells differ; " + got},
        {"length_nonneg", length >= 0, got},
        {"length_le_n", length <= n, got},
    };
  }

  static int perturbations() { return 3; }
  static Perturbation<Cell> perturb(int k, const Input& in, const Expected&,
                                    pc::Array<Cell, 1>& g, std::int64_t t) {
    const std::int64_t n = n_of(in);
    Perturbation<Cell> p;
    if (k == 0) {
      p.cell = &g.at(t, {n});
      p.saved = *p.cell;
      *p.cell = static_cast<Cell>(n + 1);
      p.must_fail = {"oracle", "length_le_n"};
    } else if (k == 1) {
      p.cell = &g.at(t, {n});
      p.saved = *p.cell;
      *p.cell = -1;
      p.must_fail = {"oracle", "length_nonneg"};
    } else {
      const auto x = static_cast<std::int64_t>(mix64(static_cast<std::uint64_t>(in.a[0]) +
                                                     static_cast<std::uint64_t>(n)) %
                                               static_cast<std::uint64_t>(n));
      p.cell = &g.at(t, {x});
      p.saved = *p.cell;
      *p.cell = p.saved + 1;
      p.must_fail = {"oracle"};
    }
    return p;
  }
};

}  // namespace

int run_lcs_long(const Args& args, Result& res) {
  return Runner<LcsLong>(args, res).run();
}

}  // namespace perfbench
