"""The one float reference of each Krylov loop: ``textbook_cg`` for cg, cgne and the eigenbasis
run, ``textbook_cgls`` for cgls. They use numpy alone and keep every state as a new array, so they
share no code with the solvers they check. Each returns a dict of the stop reason, the final x, the
scalar lists and the state lists ("xs", "rs", "ps", and "ss" for CGLS)."""

import numpy as np


def textbook_cg(apply, x, r, cap, stop, floor):
    """CG on ``apply`` from x, with r = b - A x: "converged" once ||r|| <= stop, stop >= 0,
    "max_iters" after ``cap`` steps, "breakdown" when (A p, p) <= floor ||p||^2."""
    p, rr = r, float(r @ r)
    run = {"alphas": [], "betas": [], "res_norms": [float(np.sqrt(rr))], "xs": [x], "rs": [r], "ps": [p]}
    while True:
        if np.sqrt(rr) <= stop:
            return run | {"stop_reason": "converged", "x": x}
        if len(run["alphas"]) >= cap:
            return run | {"stop_reason": "max_iters", "x": x}
        ap = apply(p)
        curvature = float(p @ ap)
        if curvature <= floor * float(p @ p):
            return run | {"stop_reason": "breakdown", "x": x}
        alpha = rr / curvature
        x = x + alpha * p
        r = r - alpha * ap
        rr_next = float(r @ r)
        beta = rr_next / rr
        p = r + beta * p
        rr = rr_next
        run["alphas"].append(alpha)
        run["betas"].append(beta)
        run["res_norms"].append(float(np.sqrt(rr)))
        run["xs"].append(x)
        run["rs"].append(r)
        run["ps"].append(p)


def textbook_cgls(a, b, x, cap, stop, floor):
    """CGLS on the matrix ``a`` from x in the same form; ``stop`` bounds ||A^T r|| = sqrt(gamma),
    and "breakdown" is ||A p||^2 <= floor ||p||^2."""
    r = b - a @ x
    s = a.T @ r
    p, gamma = s, float(s @ s)
    run = {"alphas": [], "betas": [], "res_norms": [float(np.linalg.norm(r))],
           "normal_res_norms": [float(np.sqrt(gamma))], "xs": [x], "rs": [r], "ps": [p], "ss": [s]}
    while True:
        if np.sqrt(gamma) <= stop:
            return run | {"stop_reason": "converged", "x": x}
        if len(run["alphas"]) >= cap:
            return run | {"stop_reason": "max_iters", "x": x}
        q = a @ p
        qq = float(q @ q)
        if qq <= floor * float(p @ p):
            return run | {"stop_reason": "breakdown", "x": x}
        alpha = gamma / qq
        x = x + alpha * p
        r = r - alpha * q
        s = a.T @ r
        gamma_next = float(s @ s)
        beta = gamma_next / gamma
        p = s + beta * p
        gamma = gamma_next
        for key, value in [("alphas", alpha), ("betas", beta), ("res_norms", float(np.linalg.norm(r))),
                           ("normal_res_norms", float(np.sqrt(gamma))), ("xs", x), ("rs", r), ("ps", p),
                           ("ss", s)]:
            run[key].append(value)
