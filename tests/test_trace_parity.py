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
evaluation counts drop.

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
    "exact": dict(exact_gradient=True),
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
    "bfgs-chain-forward": "15d3c607d92ca349f95302b462455b57877b165f7d57802e2d65c220e4266a3c",
    "bfgs-lstsq-centered": "39935b71c325556c9f8ed5e78f88591e87c11029739177659bc2d3136e1d4bd6",
    "bfgs-lstsq-exact": "3e62e898a425db3ac1e3e776e443af5535abe8a69b44a17e7ec69c5256aae29e",
    "bfgs-lstsq-forward": "53600c8449d16aec59e2759c8360ea0da544105942420a2bcb1b63c06ae2a5c4",
    "gd-chain-armijo-centered": "614570b08f275b44051cfa90530af33dee10e2c401ecb3ea6326bc472f087d34",
    "gd-chain-armijo-exact": "c38a9aefd1947294f8050151ddd10617f79daf89384c1956c3d082b01f534cf6",
    "gd-chain-armijo-forward": "c8d50b5a840f933f64dd02c5201600e538986d3f643b3b51baddfc8f5eebf826",
    "gd-chain-fixed-centered": "71f215ddff22bf7c651dc0d0e4d5411b663e23415203c0f48459b1e28a787916",
    "gd-chain-fixed-exact": "5cde6fba24c7b3839a34daad680933243322a63350a3cd75cdab2a43baeb304a",
    "gd-chain-fixed-forward": "ffa5970cc1dc07ee2b34ee6b4c8da62078dc9f175daf37f05ed772c01ad62785",
    "gd-chain-theory-centered": "25bda911d025c3f4d2317198c096594e5981aa6d8c0b207251f282643dfbdc34",
    "gd-chain-theory-exact": "e7c1b397fd05595a78cd375b68062158f4d1ad7aede75bce2ffeb547ecd8b669",
    "gd-chain-theory-forward": "67122561648329f0a7e63f22a03336e1f01895cc8f95e790a54c40fc01c72a2c",
    "gd-lstsq-armijo-centered": "cb68aa4da442d5ccfa6cbbd718d7e7f8074f26c4a29c838c95dcfb5eb98a6de0",
    "gd-lstsq-armijo-exact": "d2d6442649fbdf0fa8f01c89b2bfac80e085b0fa114d4f147c51647642a07a39",
    "gd-lstsq-armijo-forward": "9155ae3678d70f7eb75e75541e7f35ada42fb08cfb07168cc6d498856b2996d8",
    "gd-lstsq-fixed-centered": "c2c408ca539ace10913955a674d00bf0e10e628379f75ad0abffc7b5be08c259",
    "gd-lstsq-fixed-exact": "c9058d0fc05129d3c14e4873ce7556f95be8d97db89021df3145563eca0ac5c0",
    "gd-lstsq-fixed-forward": "0bf086b5b9e336a8c94125f8036d2a53ab8b385c132f5fc329535f708205578d",
    "gd-lstsq-theory-centered": "61dbcfa67891065da298b192c3ebf54659ec0c1077f1404333a9c3a1abb039ef",
    "gd-lstsq-theory-exact": "d537d4acb618eab1d51f7d633912dcfd3127723c68b691baed6088cba67dde72",
    "gd-lstsq-theory-forward": "64e54135ff09a871ce91792daad9e2371cade0b7c873a7a427df07486a70d872",
    "ssd-chain-armijo-centered": "37d3fa4c801737a3542e0cd6afb433b056cd95bbe535da585589f9fa2fc5279a",
    "ssd-chain-armijo-exact": "52cc27e668c175f82486d633e90fba99b87a661b1797c2f0c3e0f3ecc49db2b5",
    "ssd-chain-armijo-forward": "b88bdf65616d6761f23e12e7a4aef5a8cff5c8a4a2c1dedf0c3255a78a6b8696",
    "ssd-chain-fixed-centered": "898cc03471c5aaa7555cbcaf78ba61d9ae908759fe4ebb03fc905cd8cb8918da",
    "ssd-chain-fixed-exact": "b23efe5700bc107d4a41fe000f20f1e10a57f8563ce6a518a60e8f7aa9277839",
    "ssd-chain-fixed-forward": "0ab5a7b18991cb3a34f76153a4ab715aeeae6c867c3b507e5d34a09178af4ebf",
    "ssd-chain-theory-centered": "07a62b87e15c9a5089a266dddb6dc4389337c35c73f875992f136a3251a3913b",
    "ssd-chain-theory-exact": "ccab57584eda951e8bef9424efecc1004d0f71da7d403151032e62c66259c61a",
    "ssd-chain-theory-forward": "4e02ccf26c0af40c6d0335355629f5039545772c2faf2909e5f22377d9789477",
    "ssd-lstsq-armijo-centered": "6eb540547b876f7ffd565582866c02f3480ff940eb223bfa5f7509beb9bd388f",
    "ssd-lstsq-armijo-exact": "ef159ffbced328b333cf785dd43b9131f9285ecb873e8054186976bb93207a9d",
    "ssd-lstsq-armijo-forward": "4e06c9634b2d9a2d0b97ea2b5b00f51d4b42ca1ff67b8738366a5dec4f065c70",
    "ssd-lstsq-fixed-centered": "b9992c571b5e5f6f5f80691e4feff8a3c474594c2c82b97b97458eb16f2c35f2",
    "ssd-lstsq-fixed-exact": "b681057f1c4698ab9584d48981c6d87687b8354e7c79b9a43fb884257af4eeae",
    "ssd-lstsq-fixed-forward": "e212fd280cbd0beb561674f8f1bb0cbf6cb257000ea0f1a7f8a07ed71f65f301",
    "ssd-lstsq-theory-centered": "1c5efad8703154cefdb306b02cdef0cc9834552bd213e1b6259caa7c2a04bf77",
    "ssd-lstsq-theory-exact": "18802aff64896205de1aa4273109c1aa5584402cdf75fa84898de131789a6403",
    "ssd-lstsq-theory-forward": "30036eb314250e4e568e16a7290ea3c06b2bc3867a9b4689c7cc5a85fe2d7367",
    "step-ssd-armijo-centered": "1fba1b5e92be9130180fdac805a5c60944986b6438204236cd95a816b6e1442b",
    "step-ssd-armijo-exact": "a08a266ef21755c8e8c200deaff6e98f2d2c9fbf0511536ab157b9ef9029562f",
    "step-ssd-armijo-forward": "004d8068783b773a10d298e701919d48b1e076c3139384003182421c6642f91e",
    "step-ssd-fixed-centered": "b8c500cb41edea0b89670cd05cdb8650460f197329d31394beaa3bc37182bdd1",
    "step-ssd-fixed-exact": "a9f67d31737aa185ec9ea36e5dcc8ce5c8119461265585052303746c059b822d",
    "step-ssd-fixed-forward": "6c9e5747e67eec4ad6adbba64fa325dad9dd9acd97d758f0b0cd18bc9dc58322",
    "step-ssd-theory-centered": "830e8d12b0970ecd4075d8bb478f9bb94eedc37b284308c5739a8975a1387fc0",
    "step-ssd-theory-exact": "7e79501c0e97da7f5c83f748a50aa9c0cbb493b6d937edabf35a0edbb4a4c8f2",
    "step-ssd-theory-forward": "34c4977a58dc7dd2c88e59e5044b220fc8f1be5478c0eac1d366f3576bb2fc4f",
    "step-vrssd-armijo-centered-approx": "f81f17efdf77481397bb664c5a5d55c6f88bb21e625be4a37ce350fdab446209",
    "step-vrssd-armijo-centered-exact": "91020a56ad337f493bfd623463307013a9bec0ed01f92b47c7e16f4b6768cb0c",
    "step-vrssd-armijo-centered-one": "b0dd181b75db877d00d79a8e62e26ee52e90904875ec87d3c9f2298014867335",
    "step-vrssd-armijo-centered-zero": "4579a856727538833f2ad39541a72e45cf79dc0fe2a108ad6178a36e1b23c3b2",
    "step-vrssd-armijo-exact-approx": "aabb23729f03b379327fd1c5872f7bb089799cee06ce63fdc36f094a34bc388d",
    "step-vrssd-armijo-exact-exact": "6750d9666ee0191cc717186a44e5ba60b0ff19a7592ff694bb10923551d08029",
    "step-vrssd-armijo-exact-one": "affb75e17c12770aeea5bc9761a0d592438bd1a33054671dafc3558a2d0190be",
    "step-vrssd-armijo-exact-zero": "1c0017b5c25b5a6380b4e56d6734eae623031d316d6d61c1dfc373ed34936d74",
    "step-vrssd-armijo-forward-approx": "9ebca96091e2cb4cdc9c4fd4305b3c65745a2191f2da2083089cc951c28ed46b",
    "step-vrssd-armijo-forward-exact": "0832756ade0bc66d972e1fb8edbf30912e94702fff4036cb1653e530c4e30f6a",
    "step-vrssd-armijo-forward-one": "2e295ec3c4b60217fade5b124e7b5eb3379e2c426691365127245c4ae68a2a7f",
    "step-vrssd-armijo-forward-zero": "31fa5f8ab8876fb170afac7ef25fb013715be806f998ec79f075d946b8b7424f",
    "step-vrssd-fixed-centered-approx": "71cc32a50003c220ec334d7123a4528561e87a8c67e8d80bca6bafe73eac7137",
    "step-vrssd-fixed-centered-exact": "7dcae381bf5be22e9df8391237d8759a57ae798c4fc9f927686e93e97cae59c6",
    "step-vrssd-fixed-centered-one": "09c8e7f33163a532df7a6cdd1d35dcb2574bd5f6bd3679780dd389480d72d345",
    "step-vrssd-fixed-centered-zero": "2df97408ce0faa28516665c6e34cc6ebc5a11a8b9b6379ad2d424fcad5b02717",
    "step-vrssd-fixed-exact-approx": "55c9279e11166d444c8b4c61c2b2f2824e91d7f3d43dd24c69c42467fe988658",
    "step-vrssd-fixed-exact-exact": "dd01b60022a5b323bf2fd5fdc3a506e3f7825ad0d11601b3b7a53e000c830f32",
    "step-vrssd-fixed-exact-one": "cd75ab222f62884054deccbd27e27abc6f54b6dc8f5aa03639a2c93543db76e4",
    "step-vrssd-fixed-exact-zero": "b847ad34f2aac5459149a8f950fdb1f33e19d0b25a65ec1a6a22613cf6eee6ea",
    "step-vrssd-fixed-forward-approx": "a433fb1672ba98059d2957e16aa7b51522c70e03a79d9f438c73261d1d17341c",
    "step-vrssd-fixed-forward-exact": "6435a2ef0dab26833e0515c0446e6403cb4b182336700cbe94d73565d1ba6148",
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
    "step-vrssd-theory-forward-exact": "51204887061811a4ea546a7d397cd63a1e13c0f9ad2ccd8eee842b63030a08e7",
    "step-vrssd-theory-forward-one": "3ad786606f1e581ad1f7149cb4e3075f6f89f30d0469889d927e1ebe859648fc",
    "step-vrssd-theory-forward-zero": "59506d8106d274a63ce68d88da89cf655c75a081d39ba84f37e1f80f6f190051",
    "stop-bfgs-budget-below-one-step-armijo": "9ca1b6f9fac575a6a0a5c0087612252aaaf2fa896c08195ab88ab198523d7352",
    "stop-bfgs-budget-mid-step-armijo": "97fe23c57d19102c5fde6096915a0e855db2e0a45c0aced91ec4380822513d7b",
    "stop-bfgs-line-search-failed-armijo": "f1d8d551efcd0451543c35fcfd0fdda7de65fe8b23d936f27b65540b182b05a8",
    "stop-bfgs-max-iters-armijo": "8f78a2d0cd360174483c19ea68775cc5639f8f2ed9fa65f246b2033dbd0077fd",
    "stop-bfgs-target-at-start-armijo": "96d78f1968bc7f78252550042efef25d6d4e7b984bfc906d766e360976554b4c",
    "stop-bfgs-target-mid-run-armijo": "e16458aa48ed39b89f76ce0e8f5a4fe848691933bcdb471e15023aecee5d25d7",
    "stop-gd-budget-below-one-step-armijo": "9ca1b6f9fac575a6a0a5c0087612252aaaf2fa896c08195ab88ab198523d7352",
    "stop-gd-budget-below-one-step-fixed": "9ca1b6f9fac575a6a0a5c0087612252aaaf2fa896c08195ab88ab198523d7352",
    "stop-gd-budget-mid-step-armijo": "97fe23c57d19102c5fde6096915a0e855db2e0a45c0aced91ec4380822513d7b",
    "stop-gd-budget-mid-step-fixed": "2348527f36557393081928a764a49a4c7f6d63f72c23de9ba8add99ca18b19dd",
    "stop-gd-line-search-failed-armijo": "f1d8d551efcd0451543c35fcfd0fdda7de65fe8b23d936f27b65540b182b05a8",
    "stop-gd-max-iters-armijo": "17b9d472768746d67143570167533fcd64a6a98e3484cc478fa7462cb07ae324",
    "stop-gd-max-iters-fixed": "7608d7fa6a51445f219d0cc3c526d7313e85f80c6dfe04c44266a1b86b662ead",
    "stop-gd-target-at-start-armijo": "96d78f1968bc7f78252550042efef25d6d4e7b984bfc906d766e360976554b4c",
    "stop-gd-target-at-start-fixed": "96d78f1968bc7f78252550042efef25d6d4e7b984bfc906d766e360976554b4c",
    "stop-gd-target-mid-run-armijo": "3a3dc36936ba38e0a73a4028ac399a999c396e9732b0de822acaa59ba50f5d20",
    "stop-gd-target-mid-run-fixed": "b10862b99ec28b225272d7dca5fc01b2e8677e448665d72c27296d585e979b2f",
    "stop-ssd-budget-below-one-step-armijo": "9ca1b6f9fac575a6a0a5c0087612252aaaf2fa896c08195ab88ab198523d7352",
    "stop-ssd-budget-below-one-step-fixed": "9ca1b6f9fac575a6a0a5c0087612252aaaf2fa896c08195ab88ab198523d7352",
    "stop-ssd-budget-mid-step-armijo": "bb0be6b59d04a80a16c9b999027ba032384207414430be5c2459cd97d0ee072e",
    "stop-ssd-budget-mid-step-fixed": "358d1583f0880b8d8475afd8549e9b4577bf052029619c38633f8ae7d022b0e5",
    "stop-ssd-line-search-failed-armijo": "e0d6ba0b0f85158f2fd4e5e4f89c97da91885ea3cb7a9392d4431e9eb935f982",
    "stop-ssd-max-iters-armijo": "816efdd648406a92ad548773c68addc0e5647a8b30f73031f6ddb5d25483bda1",
    "stop-ssd-max-iters-fixed": "230f4dd7577fd48620ccec1b71ac05624857f03e521e13394625802ce29e5060",
    "stop-ssd-target-at-start-armijo": "96d78f1968bc7f78252550042efef25d6d4e7b984bfc906d766e360976554b4c",
    "stop-ssd-target-at-start-fixed": "96d78f1968bc7f78252550042efef25d6d4e7b984bfc906d766e360976554b4c",
    "stop-ssd-target-mid-run-armijo": "56c5c685ed6d1e15aaa574922e70700b07f4da20f9ac9b504da6afab83dcb9c8",
    "stop-ssd-target-mid-run-fixed": "e6c40ab914f3828368fbcc009bf9b099a2e6608914948ec296e4be6315ce6c8a",
    "stop-vrssd-budget-below-one-step-armijo": "9ca1b6f9fac575a6a0a5c0087612252aaaf2fa896c08195ab88ab198523d7352",
    "stop-vrssd-budget-below-one-step-fixed": "9ca1b6f9fac575a6a0a5c0087612252aaaf2fa896c08195ab88ab198523d7352",
    "stop-vrssd-budget-mid-step-armijo": "ef275e96c80798704425b3308405071da8085b65c0ffcad9bf930761df1dfc0c",
    "stop-vrssd-budget-mid-step-fixed": "0df61f497aca9a85483426c0a91d0773b9774c98fd55d5568acd98739977b06a",
    "stop-vrssd-line-search-failed-armijo": "e0d6ba0b0f85158f2fd4e5e4f89c97da91885ea3cb7a9392d4431e9eb935f982",
    "stop-vrssd-max-iters-armijo": "0e98a433292ac53259815dee90597689ffc570392fda5769e2e1b4fab2405549",
    "stop-vrssd-max-iters-fixed": "5f1d1373df8354944195915ab1b9335d7233b7cea3e323b9d5a3aefb5c14622a",
    "stop-vrssd-target-at-start-armijo": "96d78f1968bc7f78252550042efef25d6d4e7b984bfc906d766e360976554b4c",
    "stop-vrssd-target-at-start-fixed": "96d78f1968bc7f78252550042efef25d6d4e7b984bfc906d766e360976554b4c",
    "stop-vrssd-target-mid-run-armijo": "1927ed4a6f6ea39353dc7e5648e45043c455cbaedd87979d2bc58ec80e7fc8cd",
    "stop-vrssd-target-mid-run-fixed": "bb90030c4810b186f09f0260d2ac9907a2d516aa6d5084f6df96b5d9bab7d869",
    "vrssd-one-approx-w0-armijo-centered": "b6c1e5433560fe3c4c0b303d4f7b70e38d98bf6fee36d697f6f1cc3b9de2c90d",
    "vrssd-one-approx-w0-fixed-forward": "94a5ed8152d92d784839806842259192279525933516634a7e99596605c2db54",
    "vrssd-one-approx-w0-theory-exact": "1c6be2f4a869130808b05f8385c909f8d046913c983e48c0278018ae19f56aa4",
    "vrssd-one-approx-w3-armijo-centered": "15830580ce975a11fda94581d8b8cfeec014f19bd0b0bcd9cd4f3f052635daae",
    "vrssd-one-approx-w3-fixed-forward": "ea04969f82e2d9ce643106d1e2d64b3e02f3feb1d10c8608a7ce4eeea4b0b12c",
    "vrssd-one-approx-w3-theory-exact": "542b6a71d7ae3916d631b657b910da8247f510b823fc760da6982b2ab811d756",
    "vrssd-one-exact-w0-armijo-centered": "2f5e4cde88015d31a368b9798692fc44cb5cd2255806dc0847beba4bbb3b7c6b",
    "vrssd-one-exact-w0-fixed-forward": "c8bf41f5abcf3cbeab3087b98514f6e29d5e33fd7051e65e79a5e58262a3452a",
    "vrssd-one-exact-w0-theory-exact": "4d94aa8f7c178714365b938adf6c44b9fd6c0116c7a6a9a170368845312368d4",
    "vrssd-one-exact-w3-armijo-centered": "2ee2ad8b9a7ef777b904aa8b60037e0b1f4c6f32d0453106057b6e7549d4f9c9",
    "vrssd-one-exact-w3-fixed-forward": "eeec72be4d89dfafe7d9d9596959df560629ad1941948343bffad553072bbb25",
    "vrssd-one-exact-w3-theory-exact": "e987bc55fbb7d1fdbab94134a45976c46074d200cba7fe8603b05e4ada0e2544",
    "vrssd-one-one-w0-armijo-centered": "e78931b78177a6add63041a61f33b91d44dc6b6092baad65cf541f177e4782b3",
    "vrssd-one-one-w0-fixed-forward": "8d1f58c9225a5098f01950fd072358417d888a4648a8334ad19a3ee6ce9bfcff",
    "vrssd-one-one-w0-theory-exact": "289cd5591aa259592c58ef13c38d66d9074a100887c8a432da6892e5e41fd597",
    "vrssd-one-one-w3-armijo-centered": "cf346ad3432b0e2e5fd4bbbaaa5a64a49b5d26b5dce9e7f6995e3878ceb41259",
    "vrssd-one-one-w3-fixed-forward": "94b2fde9861f570e1879537b80ef4bcc3d589ee4dc1840f23062b0bb278e7069",
    "vrssd-one-one-w3-theory-exact": "5b9ac2a616932ac9c4b594fd89f47b8e49fae452ded80459d6e82df20fe60fd3",
    "vrssd-one-zero-w0-armijo-centered": "420c86bab6da9ad52f3d3aa279ce568129257416560d2d777399ac7899031eec",
    "vrssd-one-zero-w0-fixed-forward": "077d0b69ff9d1df2019c1fd507a9ccbe4c4f89500586e8768be363c3cfe4ee1e",
    "vrssd-one-zero-w0-theory-exact": "ccab57584eda951e8bef9424efecc1004d0f71da7d403151032e62c66259c61a",
    "vrssd-one-zero-w3-armijo-centered": "f1de48494b7b8ae568753ac1187bb9c3437bd302d9a45c33d8cd1f8cf97e81e1",
    "vrssd-one-zero-w3-fixed-forward": "a8d08a4e97f7b7df22404b9ea1b354c6e819d3cc9daa4990764a37d2ecaf1647",
    "vrssd-one-zero-w3-theory-exact": "ccab57584eda951e8bef9424efecc1004d0f71da7d403151032e62c66259c61a",
    "vrssd-two-approx-w0-armijo-centered": "b6c1e5433560fe3c4c0b303d4f7b70e38d98bf6fee36d697f6f1cc3b9de2c90d",
    "vrssd-two-approx-w0-fixed-forward": "64a5110bac49c020966a3f9a82bb4b2bef8fedde852d18dc7e4a5869a0a96026",
    "vrssd-two-approx-w0-theory-exact": "c43663a46cb238204fd10fa3703c4092a81bd60558b60ea6fdb7b5a92475214a",
    "vrssd-two-approx-w3-armijo-centered": "af9df431872832e8a7603586b8b77d3d28cd3df8af3c4b8e8b5e1b891ea4b290",
    "vrssd-two-approx-w3-fixed-forward": "25258128fba7e041032b4380f9d6818d1e13b9114e92d2f29a185076ed02b3f7",
    "vrssd-two-approx-w3-theory-exact": "573de8d83af2912e0157db96f124604f98fd77b969a3fe282b1236679b9c5217",
    "vrssd-two-exact-w0-armijo-centered": "f295d30f7fe5a93da63110dab640cedee07f7d462a0b5f37baa98e7ae123e456",
    "vrssd-two-exact-w0-fixed-forward": "b48d8ceb60d32ad8b8114508a5e132189dc5a833d65e5446afc9c72638544d98",
    "vrssd-two-exact-w0-theory-exact": "ea551cfa84d41f5685918cf7b7648c8a218a3a198d371fb0d56b1d2583371628",
    "vrssd-two-exact-w3-armijo-centered": "d43e1de0c2563a160c2d207c392b9e0892a76bc6d977c1618914110dd3b0838b",
    "vrssd-two-exact-w3-fixed-forward": "ceeee969da70ac66dd79d89e2e3943647e465abf371c3404c1e41d15994293e9",
    "vrssd-two-exact-w3-theory-exact": "f5c3827feb81d04a9f125bb7d09a9f9ed92178d6bf44fbee24d8c1b219736c5a",
    "vrssd-two-one-w0-armijo-centered": "3ba13bda8002313ab1a8ae5a8bcfb7580ec0b27a3194eb3ed399d0542a0fd3be",
    "vrssd-two-one-w0-fixed-forward": "628588422fef2070941122641cc36150851e7615675fb8f597cfeb58c393a044",
    "vrssd-two-one-w0-theory-exact": "2b208cb59e6757ea7ee6033180a05b8257bace9488620538b7b971831e25e77a",
    "vrssd-two-one-w3-armijo-centered": "cf346ad3432b0e2e5fd4bbbaaa5a64a49b5d26b5dce9e7f6995e3878ceb41259",
    "vrssd-two-one-w3-fixed-forward": "c2842704988d6a03dd24f16348671157a85f263cf1539f119ad52eeb015d38b8",
    "vrssd-two-one-w3-theory-exact": "8e3adc72fe8f1bae5edda2a2b316ef59ef6ccc77b71c4565e14cd2bc4c9d664d",
    "vrssd-two-zero-w0-armijo-centered": "45ff955460ddfbd20c3f61e513ce6f2effc3cb0c9be40117ee6dbafffb1081b8",
    "vrssd-two-zero-w0-fixed-forward": "df9e55c1ebefa14509ab69a8d84537ea8a1dfdf46abc82b78051975b4631f259",
    "vrssd-two-zero-w0-theory-exact": "c2d805269f895a2ff31b937e0a7342bc8a6fe98fabfa5a525a490ac6a0f697cc",
    "vrssd-two-zero-w3-armijo-centered": "d80b5edcdc65d0e65533f3b9b44eac075e4a6fb904e7096bdb174c099a30a2b5",
    "vrssd-two-zero-w3-fixed-forward": "c809489cbcd8ae69b1c1b35c5c8030e040fc1762c3329d3dfeda80f25cf49c7c",
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
