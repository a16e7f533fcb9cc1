//! BLEU-4 for formal languages, exactly as the paper's Appendix A defines
//! it: clipped n-gram matches over lexer tokens, geometric mean of the
//! n = 1..4 precisions, and a brevity penalty for short candidates.

use splendid_cfront::token::tokens_for_metrics;
use std::collections::HashMap;

/// Count n-grams of length `n`.
fn ngram_counts(tokens: &[String], n: usize) -> HashMap<&[String], u64> {
    let mut map: HashMap<&[String], u64> = HashMap::new();
    if tokens.len() < n {
        return map;
    }
    for w in tokens.windows(n) {
        *map.entry(w).or_insert(0) += 1;
    }
    map
}

/// Clipped n-gram precision of `candidate` against `reference`
/// (Appendix A, equation 2): `Σ min(C(s,ŷ), C(s,y)) / Σ C(s,ŷ)`.
pub fn ngram_precision(candidate: &[String], reference: &[String], n: usize) -> f64 {
    let cand = ngram_counts(candidate, n);
    let re = ngram_counts(reference, n);
    let total: u64 = cand.values().sum();
    if total == 0 {
        return 0.0;
    }
    let matched: u64 = cand
        .iter()
        .map(|(g, c)| (*c).min(re.get(g).copied().unwrap_or(0)))
        .sum();
    matched as f64 / total as f64
}

/// BLEU-4 over token sequences, in `[0, 1]`: geometric mean of the 1- to
/// 4-gram precisions times the brevity penalty
/// `min(1, e^(1 - |ref|/|cand|))`.
pub fn bleu4_tokens(candidate: &[String], reference: &[String]) -> f64 {
    if candidate.is_empty() || reference.is_empty() {
        return 0.0;
    }
    let mut log_sum = 0.0;
    for n in 1..=4 {
        let p = ngram_precision(candidate, reference, n);
        if p == 0.0 {
            // Smooth zero counts the standard way (avoids -inf for short
            // snippets): use 1/(2 * candidate n-gram count).
            let denom = candidate.len().saturating_sub(n - 1).max(1) as f64;
            log_sum += (1.0 / (2.0 * denom)).ln();
        } else {
            log_sum += p.ln();
        }
    }
    let geo = (log_sum / 4.0).exp();
    let bp = if candidate.len() >= reference.len() {
        1.0
    } else {
        (1.0 - reference.len() as f64 / candidate.len() as f64).exp()
    };
    geo * bp
}

/// BLEU-4 between two C sources (tokenized with the C lexer), in `[0, 1]`.
pub fn bleu4(candidate_src: &str, reference_src: &str) -> f64 {
    let c = tokens_for_metrics(candidate_src);
    let r = tokens_for_metrics(reference_src);
    bleu4_tokens(&c, &r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use splendid_ir::rng::Rng;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(|t| t.to_string()).collect()
    }

    #[test]
    fn identical_scores_one() {
        let src = "for ( int i = 0 ; i < n ; i ++ ) a [ i ] = b [ i ] ;";
        let t = toks(src);
        assert!((bleu4_tokens(&t, &t) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_scores_near_zero() {
        let a = toks("x y z w v u t s");
        let b = toks("p q r m n o k l");
        assert!(bleu4_tokens(&a, &b) < 0.1);
    }

    #[test]
    fn figure10_example() {
        // Candidate: * ( A + i ) = fn ( j )   Reference: A [ i ] = fn ( j )
        let cand = toks("* ( A + i ) = fn ( j )");
        let reference = toks("A [ i ] = fn ( j )");
        // Two candidate 4-grams match the reference: "= fn ( j" and
        // "fn ( j )".
        let g4 = ngram_precision(&cand, &reference, 4);
        let cand_4grams = (cand.len() - 3) as f64;
        assert!((g4 - 2.0 / cand_4grams).abs() < 1e-12, "{g4}");
        let score = bleu4_tokens(&cand, &reference);
        assert!(score > 0.0 && score < 1.0);
    }

    #[test]
    fn clipping_applies() {
        // Candidate repeats a token more often than the reference has it.
        let cand = toks("a a a a");
        let reference = toks("a b");
        let p1 = ngram_precision(&cand, &reference, 1);
        assert!((p1 - 0.25).abs() < 1e-12, "clipped to one match: {p1}");
    }

    #[test]
    fn brevity_penalty_hits_short_candidates() {
        let reference = toks("a b c d e f g h i j k l");
        let full = bleu4_tokens(&reference, &reference);
        let short: Vec<String> = reference[..6].to_vec();
        let s = bleu4_tokens(&short, &reference);
        assert!(s < full, "short candidate penalized: {s} vs {full}");
        // Verbose candidates are NOT penalized beyond precision loss
        // (footnote 1 in the appendix).
        let mut long = reference.clone();
        long.extend(reference.clone());
        let l = bleu4_tokens(&long, &reference);
        assert!(l < full && l > 0.0);
    }

    #[test]
    fn c_source_tokenization_used() {
        // Whitespace and formatting differences do not matter.
        let a = "int x=1;\n";
        let b = "int   x = 1 ;";
        assert!((bleu4(a, b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn naturalness_ordering_like_figure11() {
        // Reference: the jacobi-1d loop.
        let reference = r#"
for (i = 1; i < N - 1; i++)
  B[i] = (A[i-1] + A[i] + A[i+1]) / 3.0;
"#;
        // (a) obfuscated variable names.
        let obfuscated = r#"
for (var0 = 1; var0 < N - 1; var0++)
  var1[var0] = (var2[var0-1] + var2[var0] + var2[var0+1]) / 3.0;
"#;
        // (c) no explicit parallelism (runtime soup).
        let runtime_soup = r#"
__kmpc_fork_call(param1, param2, param3, 4, forked_function, param5, A, B, lb, ub);
void forked_function(long arg1, long arg2, double* A, double* B, long lb, long ub) {
  __kmpc_for_static_init_8(arg1, arg2, 33, lb, ub, 1, 1);
  for (i = lb; i < ub; i++)
    B[i] = (A[i-1] + A[i] + A[i+1]) / 3.0;
  __kmpc_for_static_fini(arg1, arg2);
}
"#;
        let s_id = bleu4(reference, reference);
        let s_obf = bleu4(obfuscated, reference);
        let s_rt = bleu4(runtime_soup, reference);
        assert!((s_id - 1.0).abs() < 1e-12);
        assert!(s_obf < s_id && s_obf > 0.05, "{s_obf}");
        assert!(s_rt < s_id, "{s_rt}");
    }

    /// BLEU is always within [0, 1] and identity scores 1, on seeded
    /// random token strings of 1 to 39 tokens over `a`..`f`.
    #[test]
    fn prop_bounds() {
        fn tokens(rng: &mut Rng) -> Vec<String> {
            (0..1 + rng.below(39))
                .map(|_| char::from(b'a' + rng.below(6) as u8).to_string())
                .collect()
        }
        let mut rng = Rng::for_case(0xB1E0, 0);
        for _ in 0..256 {
            let (c, r) = (tokens(&mut rng), tokens(&mut rng));
            let s = bleu4_tokens(&c, &r);
            assert!((0.0..=1.0 + 1e-12).contains(&s), "{s} for {c:?} vs {r:?}");
            let ident = bleu4_tokens(&c, &c);
            assert!(ident > 0.99 || c.len() < 4, "{ident} for {c:?}");
        }
    }
}
