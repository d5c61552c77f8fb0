// Linial's deterministic color reduction [Lin92] in CONGEST.
//
// Given a proper K-coloring (e.g. unique ids, K = n), each iteration maps
// colors to pairs (alpha, f_x(alpha)) where f_x is the polynomial over
// F_q whose coefficient vector is the base-q representation of the current
// color x. Distinct colors are distinct polynomials of degree <= d, so two
// of them collide on at most d evaluation points; with q > Delta*d every
// node finds an evaluation point avoiding all its neighbors' polynomial
// graphs, making the pair coloring proper with q^2 colors. Iterating
// reaches O(Delta^2 log^2 Delta) colors in O(log* K) rounds — the input
// coloring Lemma 2.1 needs (only log K enters the runtime, so the extra
// log^2 Delta factor over Linial's O(Delta^2) is immaterial).
//
// This header holds the arithmetic of one reduction step. The per-node
// round program that runs it over either executor is
// runtime::LinialProgram (src/runtime/linial_program.h).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace dcolor {

struct LinialResult {
  std::vector<std::int64_t> coloring;  // proper on the active subgraph
  std::int64_t num_colors = 0;         // colors are in [0, num_colors)
  int iterations = 0;
};

// Field parameters of one reduction step: the smallest prime q (with the
// matching polynomial-degree bound d, written to *poly_degree) such that
// colors in [k_in] written base q satisfy q > max_degree * d.
std::int64_t linial_field(std::int64_t k_in, int max_degree, int* poly_degree);

// f_color(alpha) over F_q, where f_color's coefficient vector is the
// base-q representation of `color` (degree <= poly_degree <= 63).
std::int64_t linial_eval(std::int64_t color, std::int64_t alpha, std::int64_t q,
                         int poly_degree);

// One node's selection: the smallest evaluation point alpha whose pair
// (alpha, f_color(alpha)) differs from every neighbor polynomial's graph,
// returned as the pair color alpha*q + f_color(alpha).
std::int64_t linial_pick_next_color(std::int64_t color, std::span<const std::int64_t> nb_colors,
                                    std::int64_t q, int poly_degree);

}  // namespace dcolor
