// heat2p-large: one periodic 2D heat job whose two time levels together
// exceed four times the last-level cache — the paper's headline case, where
// cache-obliviousness, the interior leaf and memory bandwidth decide the
// result and the periodic seams exercise the boundary clone.
//
// 5400^2 doubles x 2 time levels = 445 MiB (4.2x a 105 MiB L3), 24 steps,
// supervised in 2 slabs, so each checkpoint carries the whole 445 MiB.
#include <cmath>
#include <limits>

#include "stencils/heat.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Heat2pLarge {
  using Cell = double;
  static constexpr int kDims = 2;
  static constexpr int kDepth = 1;
  static constexpr const char* kName = "heat2p-large";
  static constexpr std::int64_t kSlabs = 2;
  static constexpr std::int64_t kKillAfterSlab = 0;
  static constexpr Reps kReps{2, 4, 2, 1, 1};
  static constexpr std::int64_t kN = 5400;
  static constexpr std::int64_t kSteps = 24;
  /// C_x = C_y = 1/8: the centre weight is 1 - 4C = 1/2, so every update is
  /// a convex combination of its five inputs.
  static constexpr double kC = 0.125;
  /// |sum_T - sum_0| / |sum_0| allowed for rounding; a changed cell of the
  /// O(1) values used here moves the sum by ~1e-8 relative.
  static constexpr long double kSumTolerance = 1e-12L;
  /// Slack on the [min_0, max_0] bound for the rounding of one update.
  static constexpr double kRangeTolerance = 1e-12;

  struct Input {
    std::uint64_t seed;
    std::int64_t n;
    std::int64_t steps;
  };
  struct Expected {
    std::vector<double> final_level;
    long double sum0 = 0;
    double min0 = 0;
    double max0 = 0;
  };

  static std::vector<Input> make_inputs(std::uint64_t seed) {
    return {{mix64(seed ^ 0x48656174ull), kN, kSteps}};
  }
  static std::array<std::int64_t, 2> extents(const Input& in) { return {in.n, in.n}; }
  static std::int64_t steps(const Input& in) { return in.steps; }
  static std::int64_t grid_points(const Input& in) { return in.n * in.n; }
  static pc::Shape<2> shape() { return pc::stencils::heat_shape<2>(); }
  static pc::BoundaryFn<double, 2> boundary() {
    return pc::periodic_boundary<double, 2>();
  }
  static auto kernel(const Input&) { return pc::stencils::heat_kernel_2d({kC, kC}); }

  static double initial(const Input& in, std::int64_t x, std::int64_t y) {
    return unit_double(in.seed, static_cast<std::uint64_t>(x * in.n + y));
  }
  static void init(const Input& in, pc::Array<double, 2>& a) {
    for (std::int64_t x = 0; x < in.n; ++x) {
      double* row = &a.at(0, {x, 0});
      for (std::int64_t y = 0; y < in.n; ++y) row[y] = initial(in, x, y);
    }
  }

  /// A plain double-buffered periodic five-point loop.  The update is
  /// written in the same operation order as the kernel, so the result is
  /// expected to match bit for bit.
  static Expected oracle(const Input& in) {
    const std::int64_t n = in.n;
    const auto nn = static_cast<std::size_t>(n * n);
    Expected e;
    std::vector<double> cur(nn), next(nn);
    e.min0 = std::numeric_limits<double>::infinity();
    e.max0 = -e.min0;
    for (std::int64_t x = 0; x < n; ++x) {
      for (std::int64_t y = 0; y < n; ++y) {
        const double v = initial(in, x, y);
        cur[static_cast<std::size_t>(x * n + y)] = v;
        e.sum0 += v;
        e.min0 = std::min(e.min0, v);
        e.max0 = std::max(e.max0, v);
      }
    }
    const double c = kC;
    for (std::int64_t s = 0; s < in.steps; ++s) {
      for (std::int64_t x = 0; x < n; ++x) {
        const double* up = &cur[static_cast<std::size_t>(((x + n - 1) % n) * n)];
        const double* mid = &cur[static_cast<std::size_t>(x * n)];
        const double* dn = &cur[static_cast<std::size_t>(((x + 1) % n) * n)];
        double* out = &next[static_cast<std::size_t>(x * n)];
        auto point = [&](std::int64_t y, std::int64_t ym, std::int64_t yp) {
          out[y] = mid[y] + c * (dn[y] - 2 * mid[y] + up[y]) +
                   c * (mid[yp] - 2 * mid[y] + mid[ym]);
        };
        point(0, n - 1, 1);
        for (std::int64_t y = 1; y < n - 1; ++y) point(y, y - 1, y + 1);
        point(n - 1, n - 2, 0);
      }
      cur.swap(next);
    }
    e.final_level = std::move(cur);
    return e;
  }

  static std::vector<Check> check(const Input& in, const Expected& e,
                                  pc::Array<double, 2>& a, std::int64_t t) {
    const std::int64_t n = in.n;
    std::int64_t mismatches = 0, first_x = -1, first_y = -1;
    long double sum = 0;
    double lo = std::numeric_limits<double>::infinity(), hi = -lo;
    for (std::int64_t x = 0; x < n; ++x) {
      const double* row = &a.at(t, {x, 0});
      const double* want = &e.final_level[static_cast<std::size_t>(x * n)];
      for (std::int64_t y = 0; y < n; ++y) {
        const double v = row[y];
        if (std::memcmp(&v, &want[y], sizeof v) != 0 && mismatches++ == 0) {
          first_x = x;
          first_y = y;
        }
        sum += v;
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
    }
    char oracle[128], sum_d[128], range_d[128];
    std::snprintf(oracle, sizeof oracle, "%lld cells differ, first at (%lld,%lld)",
                  static_cast<long long>(mismatches), static_cast<long long>(first_x),
                  static_cast<long long>(first_y));
    std::snprintf(sum_d, sizeof sum_d, "sum %.17Lg vs initial %.17Lg", sum, e.sum0);
    std::snprintf(range_d, sizeof range_d, "[%.17g, %.17g] leaves [%.17g, %.17g]", lo,
                  hi, e.min0, e.max0);
    const long double drift = std::fabs(sum - e.sum0);
    return {
        {"oracle", mismatches == 0, oracle},
        {"sum_conserved", drift <= kSumTolerance * std::fabs(e.sum0), sum_d},
        {"within_initial_range",
         lo >= e.min0 - kRangeTolerance && hi <= e.max0 + kRangeTolerance, range_d},
    };
  }

  static int perturbations() { return 2; }
  static Perturbation<double> perturb(int k, const Input& in, const Expected& e,
                                      pc::Array<double, 2>& a, std::int64_t t) {
    const auto h = mix64(in.seed + static_cast<std::uint64_t>(k));
    const auto x = static_cast<std::int64_t>(h % static_cast<std::uint64_t>(in.n));
    const auto y = static_cast<std::int64_t>((h >> 32) % static_cast<std::uint64_t>(in.n));
    Perturbation<double> p;
    p.cell = &a.at(t, {x, y});
    p.saved = *p.cell;
    if (k == 0) {
      *p.cell = e.max0 + 1.0;
      p.must_fail = {"oracle", "sum_conserved", "within_initial_range"};
    } else {
      *p.cell = std::nextafter(p.saved, std::numeric_limits<double>::infinity());
      p.must_fail = {"oracle"};
    }
    return p;
  }
};

}  // namespace

int run_heat2p_large(const Args& args, Result& res) {
  return Runner<Heat2pLarge>(args, res).run();
}

}  // namespace perfbench
