#include "src/coloring/linial.h"

#include <algorithm>
#include <cassert>

#include "src/util/prime.h"

namespace dcolor {

// Smallest prime q such that colors in [k] written base q (d+1 = number of
// digits) satisfy q > max_degree * d. Such q exists and is O(Delta log k).
std::int64_t linial_field(std::int64_t k, int max_degree, int* degree_out) {
  for (std::int64_t q = std::max<std::int64_t>(2, max_degree + 1);; q = next_prime(q + 1)) {
    if (!is_prime(q)) {
      q = static_cast<std::int64_t>(next_prime(static_cast<std::uint64_t>(q)));
    }
    // digits needed for values < k in base q
    int digits = 1;
    for (std::int64_t span = q; span < k; span *= q) ++digits;
    const int d = digits - 1;  // polynomial degree bound
    if (q > static_cast<std::int64_t>(max_degree) * std::max(d, 1)) {
      *degree_out = d;
      return q;
    }
  }
}

std::int64_t linial_eval(std::int64_t x, std::int64_t alpha, std::int64_t q, int degree) {
  // Coefficients = base-q digits of x; Horner from the top digit.
  std::int64_t coeff[64];
  for (int i = 0; i <= degree; ++i) {
    coeff[i] = x % q;
    x /= q;
  }
  std::int64_t acc = 0;
  for (int i = degree; i >= 0; --i) acc = (acc * alpha + coeff[i]) % q;
  return acc;
}

std::int64_t linial_pick_next_color(std::int64_t color, std::span<const std::int64_t> nb_colors,
                                    std::int64_t q, int degree) {
  // Find alpha such that (alpha, f_v(alpha)) differs from every
  // neighbor's full polynomial graph: for each neighbor u with a
  // different polynomial, f_u agrees with f_v on <= degree points, and
  // there are <= Delta * degree bad points < q in total.
  for (std::int64_t alpha = 0; alpha < q; ++alpha) {
    bool ok = true;
    const std::int64_t mine = linial_eval(color, alpha, q, degree);
    for (std::int64_t cu : nb_colors) {
      if (cu == color) continue;  // proper input coloring forbids this
      if (linial_eval(cu, alpha, q, degree) == mine) {
        ok = false;
        break;
      }
    }
    if (ok) return alpha * q + mine;
  }
  assert(false && "q > Delta*degree guarantees a free point");
  return 0;
}

}  // namespace dcolor
