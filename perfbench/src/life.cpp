// life-batch: many small periodic Game-of-Life boards, each fitting in L2,
// run back to back from one process as independent jobs.  Per-job costs
// dominate: walking small grids where the boundary clone takes a large
// share of the points, fork-join with little work per task, and many small
// checkpoint files, each generation created, renamed and unlinked.
#include "stencils/life.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct LifeBatch {
  using Cell = pc::stencils::LifeCell;
  static constexpr int kDims = 2;
  static constexpr int kDepth = 1;
  static constexpr const char* kName = "life-batch";
  static constexpr std::int64_t kSlabs = 4;
  static constexpr std::int64_t kKillAfterSlab = 1;
  static constexpr Reps kReps{1, 2, 4, 2, 3};
  /// 64 boards of 256^2 int32 cells: 512 KiB per board with both levels.
  static constexpr std::int64_t kBoards = 64;
  static constexpr std::int64_t kN = 256;
  static constexpr std::int64_t kSteps = 64;

  struct Input {
    std::uint64_t seed;
    std::int64_t n;
    std::int64_t steps;
  };
  struct Expected {
    std::vector<Cell> final_level;
  };

  static std::vector<Input> make_inputs(std::uint64_t seed) {
    std::vector<Input> in;
    for (std::int64_t b = 0; b < kBoards; ++b) {
      in.push_back({mix64(seed ^ mix64(0x4C696665ull + static_cast<std::uint64_t>(b))),
                    kN, kSteps});
    }
    return in;
  }
  static std::array<std::int64_t, 2> extents(const Input& in) { return {in.n, in.n}; }
  static std::int64_t steps(const Input& in) { return in.steps; }
  static std::int64_t grid_points(const Input& in) { return in.n * in.n; }
  static pc::Shape<2> shape() { return pc::stencils::life_shape(); }
  static pc::BoundaryFn<Cell, 2> boundary() { return pc::periodic_boundary<Cell, 2>(); }
  static auto kernel(const Input&) { return pc::stencils::life_kernel(); }

  /// A third of the cells start alive.
  static Cell initial(const Input& in, std::int64_t x, std::int64_t y) {
    return mix64(in.seed ^ mix64(static_cast<std::uint64_t>(x * in.n + y))) % 3 == 0 ? 1
                                                                                    : 0;
  }
  static void init(const Input& in, pc::Array<Cell, 2>& a) {
    for (std::int64_t x = 0; x < in.n; ++x) {
      Cell* row = &a.at(0, {x, 0});
      for (std::int64_t y = 0; y < in.n; ++y) row[y] = initial(in, x, y);
    }
  }

  /// Plain double-buffered B3/S23 on the torus.
  static Expected oracle(const Input& in) {
    const std::int64_t n = in.n;
    const auto nn = static_cast<std::size_t>(n * n);
    std::vector<Cell> cur(nn), next(nn);
    for (std::int64_t x = 0; x < n; ++x) {
      for (std::int64_t y = 0; y < n; ++y) {
        cur[static_cast<std::size_t>(x * n + y)] = initial(in, x, y);
      }
    }
    for (std::int64_t s = 0; s < in.steps; ++s) {
      for (std::int64_t x = 0; x < n; ++x) {
        const Cell* up = &cur[static_cast<std::size_t>(((x + n - 1) % n) * n)];
        const Cell* mid = &cur[static_cast<std::size_t>(x * n)];
        const Cell* dn = &cur[static_cast<std::size_t>(((x + 1) % n) * n)];
        Cell* out = &next[static_cast<std::size_t>(x * n)];
        auto point = [&](std::int64_t y, std::int64_t ym, std::int64_t yp) {
          const int live = up[ym] + up[y] + up[yp] + mid[ym] + mid[yp] + dn[ym] +
                           dn[y] + dn[yp];
          out[y] = live == 3 || (mid[y] != 0 && live == 2) ? 1 : 0;
        };
        point(0, n - 1, 1);
        for (std::int64_t y = 1; y < n - 1; ++y) point(y, y - 1, y + 1);
        point(n - 1, n - 2, 0);
      }
      cur.swap(next);
    }
    return {std::move(cur)};
  }

  static std::vector<Check> check(const Input& in, const Expected& e,
                                  pc::Array<Cell, 2>& a, std::int64_t t) {
    std::int64_t mismatches = 0;
    for (std::int64_t x = 0; x < in.n; ++x) {
      const Cell* row = &a.at(t, {x, 0});
      const Cell* want = &e.final_level[static_cast<std::size_t>(x * in.n)];
      for (std::int64_t y = 0; y < in.n; ++y) mismatches += row[y] != want[y];
    }
    return {{"oracle", mismatches == 0, std::to_string(mismatches) + " cells differ"}};
  }

  static int perturbations() { return 1; }
  static Perturbation<Cell> perturb(int, const Input& in, const Expected&,
                                    pc::Array<Cell, 2>& a, std::int64_t t) {
    const auto h = mix64(in.seed + 7);
    Perturbation<Cell> p;
    p.cell = &a.at(t, {static_cast<std::int64_t>(h % static_cast<std::uint64_t>(in.n)),
                       static_cast<std::int64_t>((h >> 32) % static_cast<std::uint64_t>(in.n))});
    p.saved = *p.cell;
    *p.cell = 1 - p.saved;
    p.must_fail = {"oracle"};
    return p;
  }
};

}  // namespace

int run_life_batch(const Args& args, Result& res) {
  return Runner<LifeBatch>(args, res).run();
}

}  // namespace perfbench
