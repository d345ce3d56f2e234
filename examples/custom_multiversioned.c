#include <math.h>
#ifdef _OPENMP
#include <omp.h>
#endif

#define REPRO_MIN(a, b) ((a) < (b) ? (a) : (b))
#define REPRO_MAX(a, b) ((a) > (b) ? (a) : (b))

static inline double repro_rsqrt3(double x) { return 1.0 / (x * sqrt(x)); }
static inline double repro_rsqrt(double x) { return 1.0 / sqrt(x); }

void cov_update_v0(int N, int M, double X[N][M], double S[M][M]) {
    #pragma omp parallel for num_threads(30) schedule(static)
    for (long long cidx = 0; cidx < (M + 88 - 1) / 88 * ((M + 267 - 1) / 267); cidx += 1) {
        for (long long s_t = 0; s_t < N; s_t += 21) {
            for (long long a = REPRO_MAX(cidx / ((M + 267 - 1) / 267) % ((M + 88 - 1) / 88) * 88, 0); a < REPRO_MIN(cidx / ((M + 267 - 1) / 267) % ((M + 88 - 1) / 88) * 88 + 88, M); a += 1) {
                for (long long b = REPRO_MAX(cidx % ((M + 267 - 1) / 267) * 267, 0); b < REPRO_MIN(cidx % ((M + 267 - 1) / 267) * 267 + 267, M); b += 1) {
                    for (long long s = REPRO_MAX(s_t, 0); s < REPRO_MIN(s_t + 21, N); s += 1) {
                        S[a][b] = S[a][b] + X[s][a] * X[s][b];
                    }
                }
            }
        }
    }
}

void cov_update_v1(int N, int M, double X[N][M], double S[M][M]) {
    #pragma omp parallel for num_threads(28) schedule(static)
    for (long long cidx = 0; cidx < (M + 98 - 1) / 98 * ((M + 267 - 1) / 267); cidx += 1) {
        for (long long s_t = 0; s_t < N; s_t += 40) {
            for (long long a = REPRO_MAX(cidx / ((M + 267 - 1) / 267) % ((M + 98 - 1) / 98) * 98, 0); a < REPRO_MIN(cidx / ((M + 267 - 1) / 267) % ((M + 98 - 1) / 98) * 98 + 98, M); a += 1) {
                for (long long b = REPRO_MAX(cidx % ((M + 267 - 1) / 267) * 267, 0); b < REPRO_MIN(cidx % ((M + 267 - 1) / 267) * 267 + 267, M); b += 1) {
                    for (long long s = REPRO_MAX(s_t, 0); s < REPRO_MIN(s_t + 40, N); s += 1) {
                        S[a][b] = S[a][b] + X[s][a] * X[s][b];
                    }
                }
            }
        }
    }
}

void cov_update_v2(int N, int M, double X[N][M], double S[M][M]) {
    #pragma omp parallel for num_threads(24) schedule(static)
    for (long long cidx = 0; cidx < (M + 54 - 1) / 54 * ((M + 267 - 1) / 267); cidx += 1) {
        for (long long s_t = 0; s_t < N; s_t += 28) {
            for (long long a = REPRO_MAX(cidx / ((M + 267 - 1) / 267) % ((M + 54 - 1) / 54) * 54, 0); a < REPRO_MIN(cidx / ((M + 267 - 1) / 267) % ((M + 54 - 1) / 54) * 54 + 54, M); a += 1) {
                for (long long b = REPRO_MAX(cidx % ((M + 267 - 1) / 267) * 267, 0); b < REPRO_MIN(cidx % ((M + 267 - 1) / 267) * 267 + 267, M); b += 1) {
                    for (long long s = REPRO_MAX(s_t, 0); s < REPRO_MIN(s_t + 28, N); s += 1) {
                        S[a][b] = S[a][b] + X[s][a] * X[s][b];
                    }
                }
            }
        }
    }
}

void cov_update_v3(int N, int M, double X[N][M], double S[M][M]) {
    #pragma omp parallel for num_threads(20) schedule(static)
    for (long long cidx = 0; cidx < (M + 10 - 1) / 10 * ((M + 306 - 1) / 306); cidx += 1) {
        for (long long s_t = 0; s_t < N; s_t += 54) {
            for (long long a = REPRO_MAX(cidx / ((M + 306 - 1) / 306) % ((M + 10 - 1) / 10) * 10, 0); a < REPRO_MIN(cidx / ((M + 306 - 1) / 306) % ((M + 10 - 1) / 10) * 10 + 10, M); a += 1) {
                for (long long b = REPRO_MAX(cidx % ((M + 306 - 1) / 306) * 306, 0); b < REPRO_MIN(cidx % ((M + 306 - 1) / 306) * 306 + 306, M); b += 1) {
                    for (long long s = REPRO_MAX(s_t, 0); s < REPRO_MIN(s_t + 54, N); s += 1) {
                        S[a][b] = S[a][b] + X[s][a] * X[s][b];
                    }
                }
            }
        }
    }
}

void cov_update_v4(int N, int M, double X[N][M], double S[M][M]) {
    #pragma omp parallel for num_threads(18) schedule(static)
    for (long long cidx = 0; cidx < (M + 69 - 1) / 69 * ((M + 267 - 1) / 267); cidx += 1) {
        for (long long s_t = 0; s_t < N; s_t += 21) {
            for (long long a = REPRO_MAX(cidx / ((M + 267 - 1) / 267) % ((M + 69 - 1) / 69) * 69, 0); a < REPRO_MIN(cidx / ((M + 267 - 1) / 267) % ((M + 69 - 1) / 69) * 69 + 69, M); a += 1) {
                for (long long b = REPRO_MAX(cidx % ((M + 267 - 1) / 267) * 267, 0); b < REPRO_MIN(cidx % ((M + 267 - 1) / 267) * 267 + 267, M); b += 1) {
                    for (long long s = REPRO_MAX(s_t, 0); s < REPRO_MIN(s_t + 21, N); s += 1) {
                        S[a][b] = S[a][b] + X[s][a] * X[s][b];
                    }
                }
            }
        }
    }
}

void cov_update_v5(int N, int M, double X[N][M], double S[M][M]) {
    #pragma omp parallel for num_threads(16) schedule(static)
    for (long long cidx = 0; cidx < (M + 10 - 1) / 10 * ((M + 267 - 1) / 267); cidx += 1) {
        for (long long s_t = 0; s_t < N; s_t += 56) {
            for (long long a = REPRO_MAX(cidx / ((M + 267 - 1) / 267) % ((M + 10 - 1) / 10) * 10, 0); a < REPRO_MIN(cidx / ((M + 267 - 1) / 267) % ((M + 10 - 1) / 10) * 10 + 10, M); a += 1) {
                for (long long b = REPRO_MAX(cidx % ((M + 267 - 1) / 267) * 267, 0); b < REPRO_MIN(cidx % ((M + 267 - 1) / 267) * 267 + 267, M); b += 1) {
                    for (long long s = REPRO_MAX(s_t, 0); s < REPRO_MIN(s_t + 56, N); s += 1) {
                        S[a][b] = S[a][b] + X[s][a] * X[s][b];
                    }
                }
            }
        }
    }
}

void cov_update_v6(int N, int M, double X[N][M], double S[M][M]) {
    #pragma omp parallel for num_threads(10) schedule(static)
    for (long long cidx = 0; cidx < (M + 10 - 1) / 10 * ((M + 267 - 1) / 267); cidx += 1) {
        for (long long s_t = 0; s_t < N; s_t += 58) {
            for (long long a = REPRO_MAX(cidx / ((M + 267 - 1) / 267) % ((M + 10 - 1) / 10) * 10, 0); a < REPRO_MIN(cidx / ((M + 267 - 1) / 267) % ((M + 10 - 1) / 10) * 10 + 10, M); a += 1) {
                for (long long b = REPRO_MAX(cidx % ((M + 267 - 1) / 267) * 267, 0); b < REPRO_MIN(cidx % ((M + 267 - 1) / 267) * 267 + 267, M); b += 1) {
                    for (long long s = REPRO_MAX(s_t, 0); s < REPRO_MIN(s_t + 58, N); s += 1) {
                        S[a][b] = S[a][b] + X[s][a] * X[s][b];
                    }
                }
            }
        }
    }
}

void cov_update_v7(int N, int M, double X[N][M], double S[M][M]) {
    #pragma omp parallel for num_threads(8) schedule(static)
    for (long long cidx = 0; cidx < (M + 88 - 1) / 88 * ((M + 267 - 1) / 267); cidx += 1) {
        for (long long s_t = 0; s_t < N; s_t += 21) {
            for (long long a = REPRO_MAX(cidx / ((M + 267 - 1) / 267) % ((M + 88 - 1) / 88) * 88, 0); a < REPRO_MIN(cidx / ((M + 267 - 1) / 267) % ((M + 88 - 1) / 88) * 88 + 88, M); a += 1) {
                for (long long b = REPRO_MAX(cidx % ((M + 267 - 1) / 267) * 267, 0); b < REPRO_MIN(cidx % ((M + 267 - 1) / 267) * 267 + 267, M); b += 1) {
                    for (long long s = REPRO_MAX(s_t, 0); s < REPRO_MIN(s_t + 21, N); s += 1) {
                        S[a][b] = S[a][b] + X[s][a] * X[s][b];
                    }
                }
            }
        }
    }
}

void cov_update_v8(int N, int M, double X[N][M], double S[M][M]) {
    #pragma omp parallel for num_threads(7) schedule(static)
    for (long long cidx = 0; cidx < (M + 58 - 1) / 58 * ((M + 267 - 1) / 267); cidx += 1) {
        for (long long s_t = 0; s_t < N; s_t += 25) {
            for (long long a = REPRO_MAX(cidx / ((M + 267 - 1) / 267) % ((M + 58 - 1) / 58) * 58, 0); a < REPRO_MIN(cidx / ((M + 267 - 1) / 267) % ((M + 58 - 1) / 58) * 58 + 58, M); a += 1) {
                for (long long b = REPRO_MAX(cidx % ((M + 267 - 1) / 267) * 267, 0); b < REPRO_MIN(cidx % ((M + 267 - 1) / 267) * 267 + 267, M); b += 1) {
                    for (long long s = REPRO_MAX(s_t, 0); s < REPRO_MIN(s_t + 25, N); s += 1) {
                        S[a][b] = S[a][b] + X[s][a] * X[s][b];
                    }
                }
            }
        }
    }
}

void cov_update_v9(int N, int M, double X[N][M], double S[M][M]) {
    #pragma omp parallel for num_threads(4) schedule(static)
    for (long long cidx = 0; cidx < (M + 68 - 1) / 68 * ((M + 274 - 1) / 274); cidx += 1) {
        for (long long s_t = 0; s_t < N; s_t += 21) {
            for (long long a = REPRO_MAX(cidx / ((M + 274 - 1) / 274) % ((M + 68 - 1) / 68) * 68, 0); a < REPRO_MIN(cidx / ((M + 274 - 1) / 274) % ((M + 68 - 1) / 68) * 68 + 68, M); a += 1) {
                for (long long b = REPRO_MAX(cidx % ((M + 274 - 1) / 274) * 274, 0); b < REPRO_MIN(cidx % ((M + 274 - 1) / 274) * 274 + 274, M); b += 1) {
                    for (long long s = REPRO_MAX(s_t, 0); s < REPRO_MIN(s_t + 21, N); s += 1) {
                        S[a][b] = S[a][b] + X[s][a] * X[s][b];
                    }
                }
            }
        }
    }
}

void cov_update_v10(int N, int M, double X[N][M], double S[M][M]) {
    #pragma omp parallel for num_threads(3) schedule(static)
    for (long long cidx = 0; cidx < (M + 86 - 1) / 86 * ((M + 280 - 1) / 280); cidx += 1) {
        for (long long s_t = 0; s_t < N; s_t += 56) {
            for (long long a = REPRO_MAX(cidx / ((M + 280 - 1) / 280) % ((M + 86 - 1) / 86) * 86, 0); a < REPRO_MIN(cidx / ((M + 280 - 1) / 280) % ((M + 86 - 1) / 86) * 86 + 86, M); a += 1) {
                for (long long b = REPRO_MAX(cidx % ((M + 280 - 1) / 280) * 280, 0); b < REPRO_MIN(cidx % ((M + 280 - 1) / 280) * 280 + 280, M); b += 1) {
                    for (long long s = REPRO_MAX(s_t, 0); s < REPRO_MIN(s_t + 56, N); s += 1) {
                        S[a][b] = S[a][b] + X[s][a] * X[s][b];
                    }
                }
            }
        }
    }
}

void cov_update_v11(int N, int M, double X[N][M], double S[M][M]) {
    #pragma omp parallel for num_threads(2) schedule(static)
    for (long long cidx = 0; cidx < (M + 69 - 1) / 69 * ((M + 267 - 1) / 267); cidx += 1) {
        for (long long s_t = 0; s_t < N; s_t += 21) {
            for (long long a = REPRO_MAX(cidx / ((M + 267 - 1) / 267) % ((M + 69 - 1) / 69) * 69, 0); a < REPRO_MIN(cidx / ((M + 267 - 1) / 267) % ((M + 69 - 1) / 69) * 69 + 69, M); a += 1) {
                for (long long b = REPRO_MAX(cidx % ((M + 267 - 1) / 267) * 267, 0); b < REPRO_MIN(cidx % ((M + 267 - 1) / 267) * 267 + 267, M); b += 1) {
                    for (long long s = REPRO_MAX(s_t, 0); s < REPRO_MIN(s_t + 21, N); s += 1) {
                        S[a][b] = S[a][b] + X[s][a] * X[s][b];
                    }
                }
            }
        }
    }
}

void cov_update_v12(int N, int M, double X[N][M], double S[M][M]) {
    #pragma omp parallel for num_threads(1) schedule(static)
    for (long long cidx = 0; cidx < (M + 51 - 1) / 51 * ((M + 267 - 1) / 267); cidx += 1) {
        for (long long s_t = 0; s_t < N; s_t += 21) {
            for (long long a = REPRO_MAX(cidx / ((M + 267 - 1) / 267) % ((M + 51 - 1) / 51) * 51, 0); a < REPRO_MIN(cidx / ((M + 267 - 1) / 267) % ((M + 51 - 1) / 51) * 51 + 51, M); a += 1) {
                for (long long b = REPRO_MAX(cidx % ((M + 267 - 1) / 267) * 267, 0); b < REPRO_MIN(cidx % ((M + 267 - 1) / 267) * 267 + 267, M); b += 1) {
                    for (long long s = REPRO_MAX(s_t, 0); s < REPRO_MIN(s_t + 21, N); s += 1) {
                        S[a][b] = S[a][b] + X[s][a] * X[s][b];
                    }
                }
            }
        }
    }
}


typedef void (*cov_update_fn_t)(int N, int M, double X[N][M], double S[M][M]);

typedef struct {
    cov_update_fn_t fn;
    double time;        /* measured region wall time [s] */
    double resources;   /* threads x time [cpu-s] */
    int threads;        /* tuned thread count */
    const char *params; /* parameter assignment */
} cov_update_version_t;

static const cov_update_version_t cov_update_versions[] = {
    { cov_update_v0, 0.049114262709952325, 1.4734278812985697, 30, "threads=30 tile_a=88 tile_b=267 tile_s=21" },
    { cov_update_v1, 0.052513218012025166, 1.4703701043367046, 28, "threads=28 tile_a=98 tile_b=267 tile_s=40" },
    { cov_update_v2, 0.053082739196349156, 1.2739857407123798, 24, "threads=24 tile_a=54 tile_b=267 tile_s=28" },
    { cov_update_v3, 0.06112043697135185, 1.222408739427037, 20, "threads=20 tile_a=10 tile_b=306 tile_s=54" },
    { cov_update_v4, 0.06344330142128712, 1.1419794255831683, 18, "threads=18 tile_a=69 tile_b=267 tile_s=21" },
    { cov_update_v5, 0.0671002032191039, 1.0736032515056624, 16, "threads=16 tile_a=10 tile_b=267 tile_s=56" },
    { cov_update_v6, 0.09696956834723175, 0.9696956834723175, 10, "threads=10 tile_a=10 tile_b=267 tile_s=58" },
    { cov_update_v7, 0.11526760227781352, 0.9221408182225082, 8, "threads=8 tile_a=88 tile_b=267 tile_s=21" },
    { cov_update_v8, 0.12093289024002814, 0.8465302316801969, 7, "threads=7 tile_a=58 tile_b=267 tile_s=25" },
    { cov_update_v9, 0.1930044156608059, 0.7720176626432236, 4, "threads=4 tile_a=68 tile_b=274 tile_s=21" },
    { cov_update_v10, 0.25316673746315377, 0.7595002123894613, 3, "threads=3 tile_a=86 tile_b=280 tile_s=56" },
    { cov_update_v11, 0.359764962543235, 0.71952992508647, 2, "threads=2 tile_a=69 tile_b=267 tile_s=21" },
    { cov_update_v12, 0.695172511601603, 0.695172511601603, 1, "threads=1 tile_a=51 tile_b=267 tile_s=21" },
};

enum { cov_update_num_versions = sizeof(cov_update_versions) / sizeof(cov_update_versions[0]) };

/* Default runtime policy (paper section IV): pick the version minimizing
 * the user-weighted objective sum  w_time * t(v) + w_res * r(v). */
static int cov_update_select_version(double w_time, double w_res)
{
    int best = 0;
    double best_score = w_time * cov_update_versions[0].time
                      + w_res * cov_update_versions[0].resources;
    for (int i = 1; i < cov_update_num_versions; ++i) {
        double score = w_time * cov_update_versions[i].time
                     + w_res * cov_update_versions[i].resources;
        if (score < best_score) {
            best_score = score;
            best = i;
        }
    }
    return best;
}

/* Dispatch wrapper: delegates the region invocation to the runtime-selected
 * version (label 6 in the paper's Fig. 3). */
void cov_update_dispatch(double w_time, double w_res, int N, int M, double X[N][M], double S[M][M])
{
    int v = cov_update_select_version(w_time, w_res);
    cov_update_versions[v].fn(N, M, X, S);
}
