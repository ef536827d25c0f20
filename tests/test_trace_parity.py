"""Pinned traces: every solver path hashed against a recorded digest.

Each case runs one configuration and hashes
``repr((entries, terminal_status, eval_count))`` (for the single-step
hooks, the returned entry and next point) with SHA-256.  The digests were
recorded before ``run_ssd``, ``run_vrssd``, ``run_fd_gd`` and
``run_fd_bfgs`` were moved onto one shared run driver, so a case fails as
soon as any entry, stop status or evaluation count moves.  The seven vrssd
cases with exact eta and the exact gradient were re-pinned when their
per-step full gradient stopped charging d + 1 evaluations that the budget
did not count.  The eight ``vrssd-two-{zero,one,approx,exact}-w{0,3}-theory-exact``
cases were re-pinned when an option-two restart stopped evaluating f again
at an inner iterate whose value its trace entry already held: every entry
keeps its iterate, value, step and direction norm, and only the cumulative
evaluation counts drop.  The 58 forward-difference cases were re-pinned
when a known value at the iterate (the start value, an accepted Armijo
trial, a probe set's or an anchor's base value) became the base of the next
forward differences instead of being evaluated again; the exact-eta
single-step cases moved because their full gradient now shares the base
value of the sketched probes.  Every entry keeps its iteration, value,
step and direction norm and every run its status; only the evaluation
counts drop, and the budget-stop cases fit more steps on the same budget.
No centered, exact-gradient or layer case moved.  Then 41 cases were
re-pinned when Armijo began to skip the trials that a quadratic fit
through its first rejected trial rules out (33 cases whose searches reject
a first trial), and when an exact-eta vrssd step on the anchor began to
reuse the anchor's gradient instead of probing it again (the eight
forward and centered exact-eta runs).  In 38 of them only the evaluation
counts moved.  ``stop-ssd-budget-mid-step-armijo`` and
``stop-vrssd-budget-mid-step-armijo`` keep every entry and fit one more on
the same budget.  In ``bfgs-lstsq-centered`` the iterates first differ at
entry 11, at f - f* = -8.9e-16, where the trial values differ from f0 by
rounding alone and the fit sees noise.  No layer case moved.  Three
cases were re-pinned when a fixed-rule step began to evaluate its new
iterate at once instead of leaving that value to the next probe set or a
closing evaluation, so a target met by a fixed-rule step stops the run
before the next step's probes: ``stop-ssd-target-mid-run-fixed`` (eval
count 188 -> 185), ``stop-gd-target-mid-run-fixed`` (1105 -> 1089) and
``stop-vrssd-target-mid-run-fixed`` (441 -> 425).  Their entries and
statuses are unchanged.

The matrix covers the step rules and difference schemes of ssd and gd, the
anchor options, eta modes and warmup of vrssd, every gradient source of
bfgs, each stop cause of every runner, and both single-step hooks.  A
second table pins the sketch and probe layers on their own at d up to
1000: single Haar draws, a stacked Haar sample, and the directional and
coordinate-wise difference oracles in both schemes.  The
values were recorded with numpy 2.4 and OpenBLAS 0.3.31 on x86-64; another
BLAS build may round the sketch QR differently in the last bit.
"""

import hashlib

import numpy as np
import pytest

from ssdopt import (
    AnchorState,
    ArmijoStep,
    FdScheme,
    FixedStep,
    Objective,
    ProblemSpec,
    RngStream,
    SsdConfig,
    TheoreticalStep,
    VrssdConfig,
    directional_derivatives,
    draw_haar,
    full_gradient_fd,
    nesterov_worst,
    run_fd_bfgs,
    run_fd_gd,
    run_ssd,
    run_vrssd,
    sample_haar,
    ssd_step,
    vrssd_inner_step,
)

RULES = {
    "fixed": FixedStep(0.02),
    "theory": TheoreticalStep(),
    "armijo": ArmijoStep(),
}
GRADIENTS = {
    "forward": dict(fd=FdScheme("forward")),
    "centered": dict(fd=FdScheme("centered")),
    "exact": dict(fd=FdScheme("exact")),
}
RUNNERS = {"ssd": run_ssd, "gd": run_fd_gd, "bfgs": run_fd_bfgs, "vrssd": run_vrssd}


def chain():
    return nesterov_worst(8.0, 6, 16)


def lstsq():
    return ProblemSpec.make("lstsq", {"m": 10, "d": 16, "rank": 5, "seed": 2}).build()


PROBLEMS = {"chain": chain, "lstsq": lstsq}


def x0_for(obj):
    return np.linspace(-1.0, 1.0, obj.d)


def run_digest(kind, problem, **cfg):
    obj = PROBLEMS[problem]()
    config = (VrssdConfig if kind == "vrssd" else SsdConfig)(**cfg)
    trace = RUNNERS[kind](obj, x0_for(obj), config)
    return repr((trace.entries, trace.terminal_status, obj.eval_count))


def step_digest(kind, **cfg):
    obj = chain()
    x = x0_for(obj)
    rng = RngStream(11, 1, 4)
    if kind == "ssd":
        x_next, entry = ssd_step(obj, x, SsdConfig(**cfg), rng, iteration=3)
    else:
        anchor = AnchorState(x + 0.25, full_gradient_fd(obj, x + 0.25, FdScheme()), 2)
        x_next, entry = vrssd_inner_step(obj, x, anchor, VrssdConfig(**cfg), rng, iteration=3)
    return repr((entry, x_next.tolist(), obj.eval_count))


def _cases():
    cases = {}
    base = dict(ell=3, max_iters=30, seed=5)
    for kind in ("ssd", "gd"):
        for problem in PROBLEMS:
            for rule in RULES:
                for grad in GRADIENTS:
                    cfg = dict(base, step_rule=RULES[rule], **GRADIENTS[grad])
                    cases[f"{kind}-{problem}-{rule}-{grad}"] = (run_digest, (kind, problem), cfg)
    for problem in PROBLEMS:
        for grad in GRADIENTS:
            cfg = dict(base, step_rule=ArmijoStep(), **GRADIENTS[grad])
            cases[f"bfgs-{problem}-{grad}"] = (run_digest, ("bfgs", problem), cfg)
    for option in ("one", "two"):
        for eta in ("zero", "one", "approx", "exact"):
            for warmup in (0, 3):
                for rule, grad in (("fixed", "forward"), ("armijo", "centered"),
                                   ("theory", "exact")):
                    cfg = dict(base, m=4, option=option, eta_mode=eta, warmup_iters=warmup,
                               step_rule=RULES[rule], **GRADIENTS[grad])
                    name = f"vrssd-{option}-{eta}-w{warmup}-{rule}-{grad}"
                    cases[name] = (run_digest, ("vrssd", "chain"), cfg)
    stops = {
        "target-at-start": dict(target_value=1e9),
        "target-mid-run": dict(target_value=-0.3, max_iters=400),
        "budget-below-one-step": dict(eval_budget=2),
        "budget-mid-step": dict(eval_budget=37),
        "max-iters": dict(max_iters=7),
        "line-search-failed": dict(
            step_rule=ArmijoStep(alpha_init=50.0, max_backtracks=1)
        ),
    }
    for kind in RUNNERS:
        for stop, extra in stops.items():
            for rule in ("fixed", "armijo"):
                if rule == "fixed" and (kind == "bfgs" or stop == "line-search-failed"):
                    continue
                cfg = dict(base, step_rule=RULES[rule])
                if kind == "vrssd":
                    cfg.update(m=3, warmup_iters=1, eta_mode="zero")
                cfg.update(extra)
                cases[f"stop-{kind}-{stop}-{rule}"] = (run_digest, (kind, "chain"), cfg)
    for kind in ("ssd", "vrssd"):
        for rule in RULES:
            for grad in GRADIENTS:
                cfg = dict(ell=3, step_rule=RULES[rule], **GRADIENTS[grad])
                if kind == "vrssd":
                    for eta in ("zero", "one", "approx", "exact"):
                        cases[f"step-{kind}-{rule}-{grad}-{eta}"] = (
                            step_digest, (kind,), dict(cfg, eta_mode=eta)
                        )
                else:
                    cases[f"step-{kind}-{rule}-{grad}"] = (step_digest, (kind,), cfg)
    return cases


CASES = _cases()


def digest(name):
    fn, args, cfg = CASES[name]
    return hashlib.sha256(fn(*args, **cfg).encode()).hexdigest()


DIGESTS = {
    "bfgs-chain-centered": "5f94a0bcda4eb012e59eceaf634646ebafd56d6bcfb75376b6ea03f390544d8d",
    "bfgs-chain-exact": "4d24618cae08bb98caa29c60ae3aa9bb6618f4716a8da54e0d969c1c9d3df7c6",
    "bfgs-chain-forward": "a40cd3527fbf7c1d1d3223fb2054609e73d63a9bebb9b8621ccfca0eaa046d9e",
    "bfgs-lstsq-centered": "1897587e37c243144e99949f611f60db2dc046b7165db449aa5ead3299e3f863",
    "bfgs-lstsq-exact": "9a7be161dfab134774bb9d4797c8a645f73ec730406ece711c365214842c9333",
    "bfgs-lstsq-forward": "9d317e4f1421c8452a9d7f6577570f64a0390b0a0e9b1282864b4e96c6ec4bcc",
    "gd-chain-armijo-centered": "614570b08f275b44051cfa90530af33dee10e2c401ecb3ea6326bc472f087d34",
    "gd-chain-armijo-exact": "c38a9aefd1947294f8050151ddd10617f79daf89384c1956c3d082b01f534cf6",
    "gd-chain-armijo-forward": "1dce928a4b4e22bcb368b61fe825ab34127f4b1f1b98becd90a4e8871d8a9170",
    "gd-chain-fixed-centered": "71f215ddff22bf7c651dc0d0e4d5411b663e23415203c0f48459b1e28a787916",
    "gd-chain-fixed-exact": "5cde6fba24c7b3839a34daad680933243322a63350a3cd75cdab2a43baeb304a",
    "gd-chain-fixed-forward": "497822ea5100dff10f8d6cff40307af50be5b61f3a31033e969478c1a5849e3f",
    "gd-chain-theory-centered": "25bda911d025c3f4d2317198c096594e5981aa6d8c0b207251f282643dfbdc34",
    "gd-chain-theory-exact": "e7c1b397fd05595a78cd375b68062158f4d1ad7aede75bce2ffeb547ecd8b669",
    "gd-chain-theory-forward": "6408958495c779bdc979a47018b6a1ea1f7480a2e4d3c047a597d9cbe23643cd",
    "gd-lstsq-armijo-centered": "bbc99c97e886c63d2d515dd7530040b842b4c3271b970d6217d3d933491ae202",
    "gd-lstsq-armijo-exact": "135b4cac5b955a6fddd5cbe6fda535c6de940caccaae2eb7bb6b82633b9b1e55",
    "gd-lstsq-armijo-forward": "4bf71b4133cd1382b1514fc868588edb2fc4812a2d698016a2b31ef017c9335a",
    "gd-lstsq-fixed-centered": "c2c408ca539ace10913955a674d00bf0e10e628379f75ad0abffc7b5be08c259",
    "gd-lstsq-fixed-exact": "c9058d0fc05129d3c14e4873ce7556f95be8d97db89021df3145563eca0ac5c0",
    "gd-lstsq-fixed-forward": "aaa8b7404fc03a8bc46dfe3906a999620619cbc3b59b303beb41fb11a9f5371a",
    "gd-lstsq-theory-centered": "61dbcfa67891065da298b192c3ebf54659ec0c1077f1404333a9c3a1abb039ef",
    "gd-lstsq-theory-exact": "d537d4acb618eab1d51f7d633912dcfd3127723c68b691baed6088cba67dde72",
    "gd-lstsq-theory-forward": "c841fecface02658fec339dbf0d57fb372ae2728d0b69decc70f5077610bea81",
    "ssd-chain-armijo-centered": "7af3281ac530b4dab6bb44872d34e674991024e8c8de7e2e976e61685bbf3a18",
    "ssd-chain-armijo-exact": "bc707c4f331a1a44ab29b5206ff117a3503f07dcf86cdf4b46e59ef469cae04d",
    "ssd-chain-armijo-forward": "22aa9dfb18cd1b9c8dd46a93300c8c064b4a07167511281582ceee01314d1102",
    "ssd-chain-fixed-centered": "898cc03471c5aaa7555cbcaf78ba61d9ae908759fe4ebb03fc905cd8cb8918da",
    "ssd-chain-fixed-exact": "b23efe5700bc107d4a41fe000f20f1e10a57f8563ce6a518a60e8f7aa9277839",
    "ssd-chain-fixed-forward": "4d6229c90fffd9e23a2678cc4c500431c919044f4d18470f2abdff1c063416c6",
    "ssd-chain-theory-centered": "07a62b87e15c9a5089a266dddb6dc4389337c35c73f875992f136a3251a3913b",
    "ssd-chain-theory-exact": "ccab57584eda951e8bef9424efecc1004d0f71da7d403151032e62c66259c61a",
    "ssd-chain-theory-forward": "ee22c8ba4e4dabb48265ffab7b826471d838274411bd7021a1844ab49dd66416",
    "ssd-lstsq-armijo-centered": "29733c87d2eb52c8044a81a5a39d462fe69a92b1028d9a8738611f83001979be",
    "ssd-lstsq-armijo-exact": "247834e982744809a0a64564154456c405ef9aba7b76fe385e70b862d3b62bd6",
    "ssd-lstsq-armijo-forward": "32adedf5a1309c30adc8c0e3830bb409fffc8f8f5dc76d198201b38fe03013cb",
    "ssd-lstsq-fixed-centered": "b9992c571b5e5f6f5f80691e4feff8a3c474594c2c82b97b97458eb16f2c35f2",
    "ssd-lstsq-fixed-exact": "b681057f1c4698ab9584d48981c6d87687b8354e7c79b9a43fb884257af4eeae",
    "ssd-lstsq-fixed-forward": "cbb6b15df2251724dc02ffa4be6fe3639170f343cbb7e471066edb6e1440e412",
    "ssd-lstsq-theory-centered": "1c5efad8703154cefdb306b02cdef0cc9834552bd213e1b6259caa7c2a04bf77",
    "ssd-lstsq-theory-exact": "18802aff64896205de1aa4273109c1aa5584402cdf75fa84898de131789a6403",
    "ssd-lstsq-theory-forward": "35641bb98aeb7144488e6ef72e2f4e362d6d65904b7922a0538b1960fcc6928f",
    "step-ssd-armijo-centered": "0257432a4bb17df7a69a07f6cb6eb12fc302c1e47894ee3e60db4b6a3f31de7e",
    "step-ssd-armijo-exact": "4afef325334fcb9623af2a7e70803e377b26fdf6c7cb48391cde0c3a71fa75e8",
    "step-ssd-armijo-forward": "98dcc561bb3e59fa0320602e9fc1693f519b5616fafeffc711c00b27405074d2",
    "step-ssd-fixed-centered": "b8c500cb41edea0b89670cd05cdb8650460f197329d31394beaa3bc37182bdd1",
    "step-ssd-fixed-exact": "a9f67d31737aa185ec9ea36e5dcc8ce5c8119461265585052303746c059b822d",
    "step-ssd-fixed-forward": "6c9e5747e67eec4ad6adbba64fa325dad9dd9acd97d758f0b0cd18bc9dc58322",
    "step-ssd-theory-centered": "830e8d12b0970ecd4075d8bb478f9bb94eedc37b284308c5739a8975a1387fc0",
    "step-ssd-theory-exact": "7e79501c0e97da7f5c83f748a50aa9c0cbb493b6d937edabf35a0edbb4a4c8f2",
    "step-ssd-theory-forward": "34c4977a58dc7dd2c88e59e5044b220fc8f1be5478c0eac1d366f3576bb2fc4f",
    "step-vrssd-armijo-centered-approx": "f81f17efdf77481397bb664c5a5d55c6f88bb21e625be4a37ce350fdab446209",
    "step-vrssd-armijo-centered-exact": "91020a56ad337f493bfd623463307013a9bec0ed01f92b47c7e16f4b6768cb0c",
    "step-vrssd-armijo-centered-one": "b0dd181b75db877d00d79a8e62e26ee52e90904875ec87d3c9f2298014867335",
    "step-vrssd-armijo-centered-zero": "5279b4deb5b175f1694732902c3eff8751884a90384bb25597853349ea485f3c",
    "step-vrssd-armijo-exact-approx": "aabb23729f03b379327fd1c5872f7bb089799cee06ce63fdc36f094a34bc388d",
    "step-vrssd-armijo-exact-exact": "6750d9666ee0191cc717186a44e5ba60b0ff19a7592ff694bb10923551d08029",
    "step-vrssd-armijo-exact-one": "affb75e17c12770aeea5bc9761a0d592438bd1a33054671dafc3558a2d0190be",
    "step-vrssd-armijo-exact-zero": "24047931bcdea6dfe247b70bac85e5d08745cd1e1b2b944fd81b9fd1654710ad",
    "step-vrssd-armijo-forward-approx": "9ebca96091e2cb4cdc9c4fd4305b3c65745a2191f2da2083089cc951c28ed46b",
    "step-vrssd-armijo-forward-exact": "0f0899299b1ff215a510fb426c1acb059f1942f0ccef146d3abd227e6e644d5f",
    "step-vrssd-armijo-forward-one": "2e295ec3c4b60217fade5b124e7b5eb3379e2c426691365127245c4ae68a2a7f",
    "step-vrssd-armijo-forward-zero": "e45891be9ad64acd5e75fc2aa1fad1fdb84e737896150fd0e364224ed6179b4a",
    "step-vrssd-fixed-centered-approx": "71cc32a50003c220ec334d7123a4528561e87a8c67e8d80bca6bafe73eac7137",
    "step-vrssd-fixed-centered-exact": "7dcae381bf5be22e9df8391237d8759a57ae798c4fc9f927686e93e97cae59c6",
    "step-vrssd-fixed-centered-one": "09c8e7f33163a532df7a6cdd1d35dcb2574bd5f6bd3679780dd389480d72d345",
    "step-vrssd-fixed-centered-zero": "2df97408ce0faa28516665c6e34cc6ebc5a11a8b9b6379ad2d424fcad5b02717",
    "step-vrssd-fixed-exact-approx": "55c9279e11166d444c8b4c61c2b2f2824e91d7f3d43dd24c69c42467fe988658",
    "step-vrssd-fixed-exact-exact": "dd01b60022a5b323bf2fd5fdc3a506e3f7825ad0d11601b3b7a53e000c830f32",
    "step-vrssd-fixed-exact-one": "cd75ab222f62884054deccbd27e27abc6f54b6dc8f5aa03639a2c93543db76e4",
    "step-vrssd-fixed-exact-zero": "b847ad34f2aac5459149a8f950fdb1f33e19d0b25a65ec1a6a22613cf6eee6ea",
    "step-vrssd-fixed-forward-approx": "a433fb1672ba98059d2957e16aa7b51522c70e03a79d9f438c73261d1d17341c",
    "step-vrssd-fixed-forward-exact": "51524e3a0d5e48dd5252942cbde50ea87a9cfbdd65c9022a5323bb129ae3e649",
    "step-vrssd-fixed-forward-one": "06af2fadb03210d321c2da930cb5ab9be216cf7c53ac4d854eac8cef9c525094",
    "step-vrssd-fixed-forward-zero": "478d8d9b996ff7f25fc5b3c15fbcd662dd40ad5d8bdde9070b4580e9f9ce5cfc",
    "step-vrssd-theory-centered-approx": "c56055e2ba2bcb02067337b0267364ebd496886c3aab40d7565d5d165a2f3a1a",
    "step-vrssd-theory-centered-exact": "b8e6348de66eff30b9b5264ed446efbd8ffb4ee06d1ed6752c51fc8e5a0aacf1",
    "step-vrssd-theory-centered-one": "3ab4e24033cdf419c3c68d8854f461f99f6535ff9b34e384c593a7a15ddf2081",
    "step-vrssd-theory-centered-zero": "b7c7b2851e397b62254aceee89ddfbafbdfb7ee2f367646db789b38d2cd2e663",
    "step-vrssd-theory-exact-approx": "6c3f9b19c3fc2bf039ad7cbc15d6aa0bc72108cefaec343b4ac22407113107be",
    "step-vrssd-theory-exact-exact": "d7e8924e64d23557a47bcec1ba9dac25209453f21c6663627bbbc91c32b9f509",
    "step-vrssd-theory-exact-one": "eeba19aa6a79ffed9e184a8566dc601e5098a342d19989d514871792b5a6d3ed",
    "step-vrssd-theory-exact-zero": "fab83e8c0912e2b7686a3e36c0e9911f9323aa6719a0a093892ab2d124e6430b",
    "step-vrssd-theory-forward-approx": "49bb85b9859d6d2cfc18929b950a04574bd0dd5fb6bca3157e948bdd088886fc",
    "step-vrssd-theory-forward-exact": "21ab9d3d0cfea017a1ca769cf82d315eab920f6249700cc079214da80f90d445",
    "step-vrssd-theory-forward-one": "3ad786606f1e581ad1f7149cb4e3075f6f89f30d0469889d927e1ebe859648fc",
    "step-vrssd-theory-forward-zero": "59506d8106d274a63ce68d88da89cf655c75a081d39ba84f37e1f80f6f190051",
    "stop-bfgs-budget-below-one-step-armijo": "9ca1b6f9fac575a6a0a5c0087612252aaaf2fa896c08195ab88ab198523d7352",
    "stop-bfgs-budget-mid-step-armijo": "9ccf6e0cd9466e770cebcb94d0fba2477a3a40b05555f2eeb061de7f3638da7b",
    "stop-bfgs-line-search-failed-armijo": "54f4b01b523e91672a19703db7b0e5ac0c9e1c45e61c8790dd367f0b7b64522b",
    "stop-bfgs-max-iters-armijo": "5085b27cf55d05cc87263b5c3395671cb566ef525f10e19db959d39e864852a6",
    "stop-bfgs-target-at-start-armijo": "96d78f1968bc7f78252550042efef25d6d4e7b984bfc906d766e360976554b4c",
    "stop-bfgs-target-mid-run-armijo": "f41c4112120ad9761347a991d7bcbe48a8997f2bd9684a800d3aa5b07844b803",
    "stop-gd-budget-below-one-step-armijo": "9ca1b6f9fac575a6a0a5c0087612252aaaf2fa896c08195ab88ab198523d7352",
    "stop-gd-budget-below-one-step-fixed": "9ca1b6f9fac575a6a0a5c0087612252aaaf2fa896c08195ab88ab198523d7352",
    "stop-gd-budget-mid-step-armijo": "9ccf6e0cd9466e770cebcb94d0fba2477a3a40b05555f2eeb061de7f3638da7b",
    "stop-gd-budget-mid-step-fixed": "277a61192d14d38f45dbc0ee3b1b0ccf7243ce2bbfdc6ff0088e75d3ee10c06f",
    "stop-gd-line-search-failed-armijo": "54f4b01b523e91672a19703db7b0e5ac0c9e1c45e61c8790dd367f0b7b64522b",
    "stop-gd-max-iters-armijo": "1e1976ad7b3ac99287ffe01f97cf65e18719c25cfa0ba7cca4d8d999fc19cbc3",
    "stop-gd-max-iters-fixed": "0731ca3a7dcb38468e8aee60f116fd1d888816c7034a37a9434b7f546f1944f1",
    "stop-gd-target-at-start-armijo": "96d78f1968bc7f78252550042efef25d6d4e7b984bfc906d766e360976554b4c",
    "stop-gd-target-at-start-fixed": "96d78f1968bc7f78252550042efef25d6d4e7b984bfc906d766e360976554b4c",
    "stop-gd-target-mid-run-armijo": "99fe00efd5ce854bb9783563a9c35a213cc3b74c9a0e7243881276f51ea3f807",
    "stop-gd-target-mid-run-fixed": "1eb41024e67d029a494f45e5a24140fd505854c66e0e895297efe91374896e4a",
    "stop-ssd-budget-below-one-step-armijo": "9ca1b6f9fac575a6a0a5c0087612252aaaf2fa896c08195ab88ab198523d7352",
    "stop-ssd-budget-below-one-step-fixed": "9ca1b6f9fac575a6a0a5c0087612252aaaf2fa896c08195ab88ab198523d7352",
    "stop-ssd-budget-mid-step-armijo": "ca77060955fec69dbe6d6b8b5444d4d2e78e8a7df6f2f040ae981699e4df57ad",
    "stop-ssd-budget-mid-step-fixed": "d91da4129f8c97e0265562539c58173d44590508bdcfe5d821e45410909e062e",
    "stop-ssd-line-search-failed-armijo": "2744a26cb6a62fc3d693b21b2d685b7b5396aca77e2193447fce0eb0f79863a7",
    "stop-ssd-max-iters-armijo": "894d624320e84dd18c7c15f09c128dac9c219cb28c0dd3ea852d0a8fe2d59793",
    "stop-ssd-max-iters-fixed": "fe3e9b0c6c2cef5a4a773cb3027fa00eb288d7c14b7375526ad32ff9e77c94f8",
    "stop-ssd-target-at-start-armijo": "96d78f1968bc7f78252550042efef25d6d4e7b984bfc906d766e360976554b4c",
    "stop-ssd-target-at-start-fixed": "96d78f1968bc7f78252550042efef25d6d4e7b984bfc906d766e360976554b4c",
    "stop-ssd-target-mid-run-armijo": "43f3138bd018b133e81eab020cea7d33ec4b87f11feb515727680e952d0632b7",
    "stop-ssd-target-mid-run-fixed": "67c5fd9762a4084393d41f7c69853c71ceafd39e7cd8cff56982c8a7c663570f",
    "stop-vrssd-budget-below-one-step-armijo": "9ca1b6f9fac575a6a0a5c0087612252aaaf2fa896c08195ab88ab198523d7352",
    "stop-vrssd-budget-below-one-step-fixed": "9ca1b6f9fac575a6a0a5c0087612252aaaf2fa896c08195ab88ab198523d7352",
    "stop-vrssd-budget-mid-step-armijo": "c06ebec4d718c60e6b8d42e61e25da111f2374d4e25f25b3f52dc55b3eecf93c",
    "stop-vrssd-budget-mid-step-fixed": "85d33342415eda6d423231def7dedcae0fd65cbcfb55c6e80017add7699a035d",
    "stop-vrssd-line-search-failed-armijo": "2744a26cb6a62fc3d693b21b2d685b7b5396aca77e2193447fce0eb0f79863a7",
    "stop-vrssd-max-iters-armijo": "74cb3b334740a35cef2a167f6d7745c6016f596784cebf35ee0bcb34794f8da3",
    "stop-vrssd-max-iters-fixed": "755e2474ff51b02ad67e3017843d141252124e34cc1a44e1052ddf991c04c7dc",
    "stop-vrssd-target-at-start-armijo": "96d78f1968bc7f78252550042efef25d6d4e7b984bfc906d766e360976554b4c",
    "stop-vrssd-target-at-start-fixed": "96d78f1968bc7f78252550042efef25d6d4e7b984bfc906d766e360976554b4c",
    "stop-vrssd-target-mid-run-armijo": "049b2531bdcf6521616060537f7f14ac342cfda715897998a0f669f83014a8e8",
    "stop-vrssd-target-mid-run-fixed": "3242fe7276d02355f22c817d575eaa391498de334234b61cec4ae22451f94147",
    "vrssd-one-approx-w0-armijo-centered": "b6c1e5433560fe3c4c0b303d4f7b70e38d98bf6fee36d697f6f1cc3b9de2c90d",
    "vrssd-one-approx-w0-fixed-forward": "4fff567da1aa726ea523fe7f77d97b146fa7b28223955eab26d95c790a96ed4f",
    "vrssd-one-approx-w0-theory-exact": "1c6be2f4a869130808b05f8385c909f8d046913c983e48c0278018ae19f56aa4",
    "vrssd-one-approx-w3-armijo-centered": "2c59797f9d63c9a7e15b21c3f951aa00b2050ffccc288f843cf09fda3adc91bf",
    "vrssd-one-approx-w3-fixed-forward": "779e75748556e9e2eed99f5e0b1e4ecdf4f57bd1b6132e7eab74fe14bfd1a441",
    "vrssd-one-approx-w3-theory-exact": "542b6a71d7ae3916d631b657b910da8247f510b823fc760da6982b2ab811d756",
    "vrssd-one-exact-w0-armijo-centered": "a91729c6623c3e7a286f2037493548e7883316d50bc5d05fb1e7fa53725fca62",
    "vrssd-one-exact-w0-fixed-forward": "d401edcfa3efa23f9fe5a803f88929ecc73a2d0eb1194415411827763391251c",
    "vrssd-one-exact-w0-theory-exact": "4d94aa8f7c178714365b938adf6c44b9fd6c0116c7a6a9a170368845312368d4",
    "vrssd-one-exact-w3-armijo-centered": "3d734debe5d4c9d274736619812a6d4c5032d9b6e88d1fd4400e27526039f5f7",
    "vrssd-one-exact-w3-fixed-forward": "b9dd55341433a2b01dfa41c5a23519b7ccede8c0ad638752c1c4373af1ed3c44",
    "vrssd-one-exact-w3-theory-exact": "e987bc55fbb7d1fdbab94134a45976c46074d200cba7fe8603b05e4ada0e2544",
    "vrssd-one-one-w0-armijo-centered": "e78931b78177a6add63041a61f33b91d44dc6b6092baad65cf541f177e4782b3",
    "vrssd-one-one-w0-fixed-forward": "2fc76b76b93159afab6eebbf9a98c87d5e81257ee39cb4d2b4229cf41862490a",
    "vrssd-one-one-w0-theory-exact": "289cd5591aa259592c58ef13c38d66d9074a100887c8a432da6892e5e41fd597",
    "vrssd-one-one-w3-armijo-centered": "8c270436c3c610d31b85062ecb4bd0dbf035d59efc205d27065ea8b4351465b7",
    "vrssd-one-one-w3-fixed-forward": "4141074fd106e8712e2c7912ef7ec42b2a18cf214e0d9f26d8d9ac049ba377bc",
    "vrssd-one-one-w3-theory-exact": "5b9ac2a616932ac9c4b594fd89f47b8e49fae452ded80459d6e82df20fe60fd3",
    "vrssd-one-zero-w0-armijo-centered": "06dfe931408815073002ea0be5a36c7938ed7fabcf9844d9aed50f50b1334640",
    "vrssd-one-zero-w0-fixed-forward": "fc511ed9fb34366536392cd324eb586bda40126e961a788ba31d9c480b2788b9",
    "vrssd-one-zero-w0-theory-exact": "ccab57584eda951e8bef9424efecc1004d0f71da7d403151032e62c66259c61a",
    "vrssd-one-zero-w3-armijo-centered": "aabbcac4774a1f5e201cce54f4cfb56120d7f7e148f535164a2fab4be904e78f",
    "vrssd-one-zero-w3-fixed-forward": "cafa2e7ee86ac9498142f83c09f4cf6d8b21aeacb7895eef722b7f1b30e16085",
    "vrssd-one-zero-w3-theory-exact": "ccab57584eda951e8bef9424efecc1004d0f71da7d403151032e62c66259c61a",
    "vrssd-two-approx-w0-armijo-centered": "b6c1e5433560fe3c4c0b303d4f7b70e38d98bf6fee36d697f6f1cc3b9de2c90d",
    "vrssd-two-approx-w0-fixed-forward": "bf2b71c28b4cfeb06118e9662a328063dc4c4680fb3643876969efc80e459185",
    "vrssd-two-approx-w0-theory-exact": "c43663a46cb238204fd10fa3703c4092a81bd60558b60ea6fdb7b5a92475214a",
    "vrssd-two-approx-w3-armijo-centered": "75d36afe996bf6be57cedc6f5a2995c74c4112a887bd42b3b45140b51953b375",
    "vrssd-two-approx-w3-fixed-forward": "0bb0f8add3128a4a0bdff55b8d06794cd85e6c6a6cf4e49b33f57b95b92bd43d",
    "vrssd-two-approx-w3-theory-exact": "573de8d83af2912e0157db96f124604f98fd77b969a3fe282b1236679b9c5217",
    "vrssd-two-exact-w0-armijo-centered": "aae14f505d0f2ce2d1cc205d3316ac8d1b6f3f7adc3718110aa2225249ad710a",
    "vrssd-two-exact-w0-fixed-forward": "da93c19462d1e85f55cb0681ff144d200254cb6e0f031780ea90b85046f38ec6",
    "vrssd-two-exact-w0-theory-exact": "ea551cfa84d41f5685918cf7b7648c8a218a3a198d371fb0d56b1d2583371628",
    "vrssd-two-exact-w3-armijo-centered": "ce25e13262258b15c8cae8bb471a706ea6906c382a10d59cc9005ae8e868ffa3",
    "vrssd-two-exact-w3-fixed-forward": "eedadaab9249b5259423a6b19d2a1cc9cb56d756692707adefe95d9ec96bc245",
    "vrssd-two-exact-w3-theory-exact": "f5c3827feb81d04a9f125bb7d09a9f9ed92178d6bf44fbee24d8c1b219736c5a",
    "vrssd-two-one-w0-armijo-centered": "3ba13bda8002313ab1a8ae5a8bcfb7580ec0b27a3194eb3ed399d0542a0fd3be",
    "vrssd-two-one-w0-fixed-forward": "e14945f3d240c67efd383efea84f73dde674e705f18ba7047ab68eb751ae78d1",
    "vrssd-two-one-w0-theory-exact": "2b208cb59e6757ea7ee6033180a05b8257bace9488620538b7b971831e25e77a",
    "vrssd-two-one-w3-armijo-centered": "8c270436c3c610d31b85062ecb4bd0dbf035d59efc205d27065ea8b4351465b7",
    "vrssd-two-one-w3-fixed-forward": "87c1308eedb11a2647349acb68b124349fb521ae1d143321fc52b09fa69b546a",
    "vrssd-two-one-w3-theory-exact": "8e3adc72fe8f1bae5edda2a2b316ef59ef6ccc77b71c4565e14cd2bc4c9d664d",
    "vrssd-two-zero-w0-armijo-centered": "9a702b22529f3ffd58525fcbc97351d099247f086167ffb84c13acfec47ff593",
    "vrssd-two-zero-w0-fixed-forward": "c1e6449fb154b5d2d041bd7abd6ed47a844278371a71867b6e435ef7b60ed706",
    "vrssd-two-zero-w0-theory-exact": "c2d805269f895a2ff31b937e0a7342bc8a6fe98fabfa5a525a490ac6a0f697cc",
    "vrssd-two-zero-w3-armijo-centered": "b8018c9955dab69bd761887d6cdac693b5378a941fe54590dc73f4df4248fcf3",
    "vrssd-two-zero-w3-fixed-forward": "bb90c99cf60b8f13df656237356789c9385b10019e79e68a9676143b2dd60dd7",
    "vrssd-two-zero-w3-theory-exact": "3c6c3572d5d21fa71c2c18b4f9e5d327f6fd2dee8a9075356fea2cad0a249ae8",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_is_unchanged(name):
    assert digest(name) == DIGESTS[name]


def test_every_case_is_pinned():
    assert sorted(DIGESTS) == sorted(CASES)


# The sketch and probe layers on their own, at the benchmark's dimensions.
# At d=1000 OpenBLAS takes threaded paths that the d=16 runs above never
# reach.  A Haar case hashes the bytes of one draw; a probe case hashes
# every probe point in evaluation order, then the estimate, the base value
# and the evaluation count.  The start point holds a -0.0, so a probe built
# by adding a zero offset to it (+0.0) changes the digest.
HAAR_SHAPES = [(1, 1), (5, 5), (101, 3), (200, 10), (1000, 10)]
PROBE_SHAPES = [(101, 3), (200, 10), (1000, 10)]


def haar_bytes(d, ell, seed, step):
    return draw_haar(d, ell, RngStream(seed, 0, step)).matrix.tobytes()


def stack_bytes():
    return sample_haar(101, 3, 64, RngStream(3, 1, 0).generator()).tobytes()


def probe_bytes(oracle, kind, d, ell):
    base = nesterov_worst(8.0, 10, d)
    h = hashlib.sha256()

    def recorded(x):
        h.update(x.tobytes())
        return base.evaluator(x)

    obj = Objective(d, recorded)
    x = np.linspace(-1.0, 1.0, d)
    x[1] = -0.0
    if oracle == "directional":
        P = draw_haar(d, ell, RngStream(4, 0, d))
        est, fx = directional_derivatives(obj, x, P, FdScheme(kind), return_value=True)
    else:
        est, fx = full_gradient_fd(obj, x, FdScheme(kind), return_value=True)
    return h.digest() + repr((est.tolist(), fx, obj.eval_count)).encode()


def _layer_cases():
    cases = {}
    for d, ell in HAAR_SHAPES:
        for seed in (0, 5, 2019):
            for step in (0, 1, 17):
                cases[f"haar-{d}x{ell}-s{seed}-k{step}"] = (haar_bytes, (d, ell, seed, step))
    cases["haar-stack-101x3x64"] = (stack_bytes, ())
    for d, ell in PROBE_SHAPES:
        for kind in ("forward", "centered"):
            for oracle in ("directional", "full"):
                cases[f"{oracle}-{kind}-d{d}"] = (probe_bytes, (oracle, kind, d, ell))
    return cases


LAYER_CASES = _layer_cases()


def layer_digest(name):
    fn, args = LAYER_CASES[name]
    return hashlib.sha256(fn(*args)).hexdigest()


LAYER_DIGESTS = {
    "directional-centered-d1000": "dc22a72879b58ea3b29e8a6d7255a78fcc908e8e8fe2f302084f4158e5f243df",
    "directional-centered-d101": "7afb134c46d2b841b11285737bc4581152eaffcf283209a4ad53dffa8ac3baba",
    "directional-centered-d200": "c822e55492221efc79ea3a9a32bddc41dab262b03ee522360da60f3c0eb554a9",
    "directional-forward-d1000": "6f04c9da3d6f97fbb77d855090d346b8316094883818ba3bda979d79c26e6dae",
    "directional-forward-d101": "c7dba251bca095fd4cdedaec0e1ee8d162ecf71c6353e410a21bf534c5d3e7d5",
    "directional-forward-d200": "55ddcce9cb5398308ec784e725e270388da94bb8739e721aae7b5b50607e3e26",
    "full-centered-d1000": "afa9449878786c6b6940f5dd21120bbc77de36be9834bf12fc3b55e02470b006",
    "full-centered-d101": "11f5cd3239d8f8b7b9c6d85d730b33656fdb935a7956bc62d9003e1a11f357ff",
    "full-centered-d200": "c46f50100e323f033c46879c713b042bc7fa818c264c3147d2fed68b661b450b",
    "full-forward-d1000": "2efabfbaab49cd7d4c094add9c0d1051a9b05964b299d59bb404ca4e7c6e2009",
    "full-forward-d101": "c1d537545313f945058077482c1dc0fc9d90548d958e84c23d152d2e66837488",
    "full-forward-d200": "708e7ff01cfc4f4b2ae8231ec796eec31cc94517b7926d3894218a15a5a7ae78",
    "haar-1000x10-s0-k0": "b01db0c446ce73787ffdef49824fb37f76c9a669642992be16de411753a39cce",
    "haar-1000x10-s0-k1": "26b62f4d6c67d42f4a2684bf696bae9689743f7f8b39aeab781920fa78707de5",
    "haar-1000x10-s0-k17": "09a1878e9ee1f721f824bc3992161cd350c387c28777bac090e58358e01337e0",
    "haar-1000x10-s2019-k0": "fa83509c36702188452a648df54d8cc5dfb9d9aa6ba47bbfacebcd81a0cfabd1",
    "haar-1000x10-s2019-k1": "0c86b4383072be4c324df43a2f9360a956e622b066974b387c68708a855cf29e",
    "haar-1000x10-s2019-k17": "d616135a568c0cfa39dd2ae63a2f5ecfb0250990eb4f984d9bdb27a084f4cb14",
    "haar-1000x10-s5-k0": "5fb745782feccc4b8d0cf976b7d9fe8148c3866e15fa79545bad4f8e50d0928d",
    "haar-1000x10-s5-k1": "11392cacd584fe7c68b59fe4918f0031e57716792a26d7ee78950dab9534e75d",
    "haar-1000x10-s5-k17": "3050af2e339b405077b9f114fc096d97904f316da9fcc7f6143f5a6589c1d68b",
    "haar-101x3-s0-k0": "0e25732db145d615a928f6ba9d9ee90be56d703ff9f5ca5d8d8b5ca13fd2d531",
    "haar-101x3-s0-k1": "d05abdacf46b0bae00a3cbd9e2b800542db6f61d229035f50522aee5dc6065df",
    "haar-101x3-s0-k17": "7d92c8bf185ad31b8955803627351755f7ccd08093039a2abb538ce0c552940e",
    "haar-101x3-s2019-k0": "af466b2feca7779fbc6d164c34ed42b76bdcf579c9c3f384219c3bdd364018ab",
    "haar-101x3-s2019-k1": "c4e31fd276c4cb8b9cc996e0803e5f87b446d5dcf1e1e72d46b2d9a93b4482d1",
    "haar-101x3-s2019-k17": "32f1e59a2e88b5ee954454a8186c0b0c9a87689d9c1ed4ac1bc04a3b67f1ea7e",
    "haar-101x3-s5-k0": "403116e3c2a58f5ddb6b326f1cfeb5d66df80ca81d384d54b5a78322e14cc797",
    "haar-101x3-s5-k1": "48e5ce8cabe86748867debbf458a834206adfdfc0a2ecdab2f13fbfe595f2dcc",
    "haar-101x3-s5-k17": "e8a235c905b83953c942dcf91285036cf28f03b3fcaaa0cd8d2fa048fd4e7f6b",
    "haar-1x1-s0-k0": "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
    "haar-1x1-s0-k1": "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
    "haar-1x1-s0-k17": "e77817b649821c634355a917817c1224a360514b1244fe09e832bac4e8ea4440",
    "haar-1x1-s2019-k0": "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
    "haar-1x1-s2019-k1": "e77817b649821c634355a917817c1224a360514b1244fe09e832bac4e8ea4440",
    "haar-1x1-s2019-k17": "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
    "haar-1x1-s5-k0": "e77817b649821c634355a917817c1224a360514b1244fe09e832bac4e8ea4440",
    "haar-1x1-s5-k1": "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
    "haar-1x1-s5-k17": "e77817b649821c634355a917817c1224a360514b1244fe09e832bac4e8ea4440",
    "haar-200x10-s0-k0": "9b855b12c564b947fd37e1925e04a1ae30900deec236fa6684f74fed6cf9d2d2",
    "haar-200x10-s0-k1": "3cdd9d9e438681a38a3ff88f1c017b7093d5e21edccd24c36e83a48c29d04351",
    "haar-200x10-s0-k17": "5e2cf888888726523337d4d93565021d1d682a07c52cd45428c5f7217aca9c22",
    "haar-200x10-s2019-k0": "b6bc09d1dad987a1c8fd075cb2dcdb3d8ac6d93f203cd3ab615002e8671ee57f",
    "haar-200x10-s2019-k1": "6385791ac404343584f5e1b24789123cf9cbabb98b023c100e2afe2c4a397871",
    "haar-200x10-s2019-k17": "304c847b8ad45b7b18a5a829ca4f3ea6f12ef500bb9704c82636c1d2b127891a",
    "haar-200x10-s5-k0": "c1750467361cd4435f80f4598cf183dc3dd76983b012a7bd72533907e440481a",
    "haar-200x10-s5-k1": "20ce3e55c352dd8a8e9cd096294feed22153c635f521b708df5d249218c77819",
    "haar-200x10-s5-k17": "6cd1f5ff9c3dd4e7c5b14234a7c656c59dea31846dfe0c5b67d42d06680e1c85",
    "haar-5x5-s0-k0": "19cbc7aa1b925b3cec7f7c789e471682c6d04af7fbfb38871620d3f2cecb1813",
    "haar-5x5-s0-k1": "ed226aa46a41bfcc25b7fb7c5389f84abea8007b07f5563f118159c0f5bb74ab",
    "haar-5x5-s0-k17": "5c32fc4c58248acc7a6a5072082194323e0b17acff7b1b730290c721f54be2cf",
    "haar-5x5-s2019-k0": "4826525b5bdf5a0a8126775a966f07c0dcb9181d5a751f61d333e3ccd64ecef5",
    "haar-5x5-s2019-k1": "1073aae2b29fae95bc85409cdb7ca54a72720425399cbc712b407ea573d08877",
    "haar-5x5-s2019-k17": "2053999d7f0c3b6e185bbfeaa4bb736a64a67531e0bc6b4f0362aed6bb41b794",
    "haar-5x5-s5-k0": "f6cd9f1d8cd4d906ada94bfdcf1176c021910fe74319b51d0942837cdad093d4",
    "haar-5x5-s5-k1": "16ab270ec8973b807437d52c7742d401d4b772d298544ad5021a47e02219d639",
    "haar-5x5-s5-k17": "5ca071d5d24a4df79806301276ea74d529ff2e5c0eeee4a333ea0c3098dfe998",
    "haar-stack-101x3x64": "b7b2dc2f896b0f87f05157b9c2616d144b898d9fe86363e4fed5f87eed7f98bd",
}


@pytest.mark.parametrize("name", sorted(LAYER_CASES))
def test_layer_output_is_unchanged(name):
    assert layer_digest(name) == LAYER_DIGESTS[name]


def test_every_layer_case_is_pinned():
    assert sorted(LAYER_DIGESTS) == sorted(LAYER_CASES)
