"""Pinned traces: every solver path hashed against a recorded digest.

Each case runs one configuration and hashes
``repr((entries, terminal_status, eval_count))`` (for the single-step
hooks, the returned entry and next point) with SHA-256, so a case fails as
soon as any entry, stop status or evaluation count moves.  CHANGES.md
records each re-pin: which cases moved, why, and how they were compared
field by field with the previous revision.

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
    "bfgs-chain-centered": "61049ca118eb24434ee515ad8f47c85301e87d3073c4ee2daf35db1f97993292",
    "bfgs-chain-exact": "5905f83ed669631b7e8b6057431df37858a7af9e0bfb7469b2dff3ee27eb9543",
    "bfgs-chain-forward": "6f45e031144700cb97e8acb25d797af5c28ef638be0eefdd52f335cc72d4eb66",
    "bfgs-lstsq-centered": "0c1d27575cfc6c07da600ea2dd81f28b9a6ccc52bddf777f8a60f31687f9af4e",
    "bfgs-lstsq-exact": "404c1ea6972009859dd1e556031ef92abb51d6ab3df1b32844fbadd200d893f6",
    "bfgs-lstsq-forward": "806f17575c8f2c36f0fce965d06ba3692f284f4ef6d75ca658dcae31f9dc4365",
    "gd-chain-armijo-centered": "ba373d2d6f16dbe12fac0dee258558310b730b655f443e202ef0fdf199d98f63",
    "gd-chain-armijo-exact": "0e765c943457094644c4312a17842c869aa44a5642c02660d799a7a81091df4f",
    "gd-chain-armijo-forward": "84f9bb596a2d5f7b963864723667f09cc495cf6832437e90c3495c4f3a8b031b",
    "gd-chain-fixed-centered": "71f215ddff22bf7c651dc0d0e4d5411b663e23415203c0f48459b1e28a787916",
    "gd-chain-fixed-exact": "5cde6fba24c7b3839a34daad680933243322a63350a3cd75cdab2a43baeb304a",
    "gd-chain-fixed-forward": "497822ea5100dff10f8d6cff40307af50be5b61f3a31033e969478c1a5849e3f",
    "gd-chain-theory-centered": "25bda911d025c3f4d2317198c096594e5981aa6d8c0b207251f282643dfbdc34",
    "gd-chain-theory-exact": "e7c1b397fd05595a78cd375b68062158f4d1ad7aede75bce2ffeb547ecd8b669",
    "gd-chain-theory-forward": "6408958495c779bdc979a47018b6a1ea1f7480a2e4d3c047a597d9cbe23643cd",
    "gd-lstsq-armijo-centered": "e2d405a9d1feb4474ce2a62d528c1ea4c3c75e7cfe43ccda7f1036ed7299b533",
    "gd-lstsq-armijo-exact": "50c926636bfc105bea915b2e96cff0472d7893e8d9434550e2e1744cadb02be6",
    "gd-lstsq-armijo-forward": "6442e73d76a8458983027262ba255665cb3f07c0a640a762fb29eadef6ac4157",
    "gd-lstsq-fixed-centered": "c2c408ca539ace10913955a674d00bf0e10e628379f75ad0abffc7b5be08c259",
    "gd-lstsq-fixed-exact": "c9058d0fc05129d3c14e4873ce7556f95be8d97db89021df3145563eca0ac5c0",
    "gd-lstsq-fixed-forward": "aaa8b7404fc03a8bc46dfe3906a999620619cbc3b59b303beb41fb11a9f5371a",
    "gd-lstsq-theory-centered": "61dbcfa67891065da298b192c3ebf54659ec0c1077f1404333a9c3a1abb039ef",
    "gd-lstsq-theory-exact": "d537d4acb618eab1d51f7d633912dcfd3127723c68b691baed6088cba67dde72",
    "gd-lstsq-theory-forward": "c841fecface02658fec339dbf0d57fb372ae2728d0b69decc70f5077610bea81",
    "ssd-chain-armijo-centered": "af05ff5cf343bf11b6f6fbd854abca5090158a9333b74502f97bbe938304f270",
    "ssd-chain-armijo-exact": "eb9f1467d60506fec71b650e312e94c48485757955cee1e04407ba880bfa7875",
    "ssd-chain-armijo-forward": "197ed94f6049435f4fb138a5c989e1fbde87158592934b893c962546644ed203",
    "ssd-chain-fixed-centered": "898cc03471c5aaa7555cbcaf78ba61d9ae908759fe4ebb03fc905cd8cb8918da",
    "ssd-chain-fixed-exact": "b23efe5700bc107d4a41fe000f20f1e10a57f8563ce6a518a60e8f7aa9277839",
    "ssd-chain-fixed-forward": "4d6229c90fffd9e23a2678cc4c500431c919044f4d18470f2abdff1c063416c6",
    "ssd-chain-theory-centered": "07a62b87e15c9a5089a266dddb6dc4389337c35c73f875992f136a3251a3913b",
    "ssd-chain-theory-exact": "ccab57584eda951e8bef9424efecc1004d0f71da7d403151032e62c66259c61a",
    "ssd-chain-theory-forward": "ee22c8ba4e4dabb48265ffab7b826471d838274411bd7021a1844ab49dd66416",
    "ssd-lstsq-armijo-centered": "4008b9f277f031a638c401b5b20b21f409be86f1d9d585fc400eee39906d8875",
    "ssd-lstsq-armijo-exact": "c8a086086fe7c653f56654d5fa57e85b43a8f835e2dbfb37df3b495109ccd1aa",
    "ssd-lstsq-armijo-forward": "774b5801bdaba49eba4fbab2259f6a6cafabc7920bf59386e3ce6f402cba3e41",
    "ssd-lstsq-fixed-centered": "b9992c571b5e5f6f5f80691e4feff8a3c474594c2c82b97b97458eb16f2c35f2",
    "ssd-lstsq-fixed-exact": "b681057f1c4698ab9584d48981c6d87687b8354e7c79b9a43fb884257af4eeae",
    "ssd-lstsq-fixed-forward": "cbb6b15df2251724dc02ffa4be6fe3639170f343cbb7e471066edb6e1440e412",
    "ssd-lstsq-theory-centered": "1c5efad8703154cefdb306b02cdef0cc9834552bd213e1b6259caa7c2a04bf77",
    "ssd-lstsq-theory-exact": "18802aff64896205de1aa4273109c1aa5584402cdf75fa84898de131789a6403",
    "ssd-lstsq-theory-forward": "35641bb98aeb7144488e6ef72e2f4e362d6d65904b7922a0538b1960fcc6928f",
    "step-ssd-armijo-centered": "a301fedb80a67cb0204143b94e5813fd226d73cca301d6fce24e134d4d3b0aeb",
    "step-ssd-armijo-exact": "e06bd1cc3c0754097d29353ec3a971dfa0d1136c1336e4ea3e812ad552bda5d4",
    "step-ssd-armijo-forward": "852103f58c2bab3878e70b207bb06c9b7fe264699d6dfb683fc952f003c01c19",
    "step-ssd-fixed-centered": "b8c500cb41edea0b89670cd05cdb8650460f197329d31394beaa3bc37182bdd1",
    "step-ssd-fixed-exact": "a9f67d31737aa185ec9ea36e5dcc8ce5c8119461265585052303746c059b822d",
    "step-ssd-fixed-forward": "6c9e5747e67eec4ad6adbba64fa325dad9dd9acd97d758f0b0cd18bc9dc58322",
    "step-ssd-theory-centered": "830e8d12b0970ecd4075d8bb478f9bb94eedc37b284308c5739a8975a1387fc0",
    "step-ssd-theory-exact": "7e79501c0e97da7f5c83f748a50aa9c0cbb493b6d937edabf35a0edbb4a4c8f2",
    "step-ssd-theory-forward": "34c4977a58dc7dd2c88e59e5044b220fc8f1be5478c0eac1d366f3576bb2fc4f",
    "step-vrssd-armijo-centered-approx": "f81f17efdf77481397bb664c5a5d55c6f88bb21e625be4a37ce350fdab446209",
    "step-vrssd-armijo-centered-exact": "91020a56ad337f493bfd623463307013a9bec0ed01f92b47c7e16f4b6768cb0c",
    "step-vrssd-armijo-centered-one": "b0dd181b75db877d00d79a8e62e26ee52e90904875ec87d3c9f2298014867335",
    "step-vrssd-armijo-centered-zero": "6770680a8864ddf8a201e10f94fabac07f809feafb81f8af72074b318fadc4bd",
    "step-vrssd-armijo-exact-approx": "aabb23729f03b379327fd1c5872f7bb089799cee06ce63fdc36f094a34bc388d",
    "step-vrssd-armijo-exact-exact": "6750d9666ee0191cc717186a44e5ba60b0ff19a7592ff694bb10923551d08029",
    "step-vrssd-armijo-exact-one": "affb75e17c12770aeea5bc9761a0d592438bd1a33054671dafc3558a2d0190be",
    "step-vrssd-armijo-exact-zero": "1b4844eb4457bfa1cb00a7cafd409d3e5692ffd6504dccbd623c7d63492f00d8",
    "step-vrssd-armijo-forward-approx": "9ebca96091e2cb4cdc9c4fd4305b3c65745a2191f2da2083089cc951c28ed46b",
    "step-vrssd-armijo-forward-exact": "0f0899299b1ff215a510fb426c1acb059f1942f0ccef146d3abd227e6e644d5f",
    "step-vrssd-armijo-forward-one": "2e295ec3c4b60217fade5b124e7b5eb3379e2c426691365127245c4ae68a2a7f",
    "step-vrssd-armijo-forward-zero": "d0187b722c1e56fab8a3a2957f13147ae9a313abd909b9bd058ab6bc4d6230f9",
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
    "stop-bfgs-budget-mid-step-armijo": "3d585cbfafb336bdd7c5f565e45996c5fdb7d9f5be31f9a9d953d614898da85f",
    "stop-bfgs-line-search-failed-armijo": "54f4b01b523e91672a19703db7b0e5ac0c9e1c45e61c8790dd367f0b7b64522b",
    "stop-bfgs-max-iters-armijo": "00ab00ba285eeffe301d6cfd3ea4313c08a27f0f779bb81333e3f40704b3b116",
    "stop-bfgs-target-at-start-armijo": "96d78f1968bc7f78252550042efef25d6d4e7b984bfc906d766e360976554b4c",
    "stop-bfgs-target-mid-run-armijo": "523b40b6e01ac06b13b7d5beccd9a533675f9a54c1e9270b145d65d3696ebe92",
    "stop-gd-budget-below-one-step-armijo": "9ca1b6f9fac575a6a0a5c0087612252aaaf2fa896c08195ab88ab198523d7352",
    "stop-gd-budget-below-one-step-fixed": "9ca1b6f9fac575a6a0a5c0087612252aaaf2fa896c08195ab88ab198523d7352",
    "stop-gd-budget-mid-step-armijo": "d31d515e5a70b27135fd4430945af3fe0942d0eb51d204188292b7d32f0aae20",
    "stop-gd-budget-mid-step-fixed": "277a61192d14d38f45dbc0ee3b1b0ccf7243ce2bbfdc6ff0088e75d3ee10c06f",
    "stop-gd-line-search-failed-armijo": "54f4b01b523e91672a19703db7b0e5ac0c9e1c45e61c8790dd367f0b7b64522b",
    "stop-gd-max-iters-armijo": "0a4091d881e10581581a718338b28b4cf5e6b62dfc5490b96dd3981cdbdb2d53",
    "stop-gd-max-iters-fixed": "0731ca3a7dcb38468e8aee60f116fd1d888816c7034a37a9434b7f546f1944f1",
    "stop-gd-target-at-start-armijo": "96d78f1968bc7f78252550042efef25d6d4e7b984bfc906d766e360976554b4c",
    "stop-gd-target-at-start-fixed": "96d78f1968bc7f78252550042efef25d6d4e7b984bfc906d766e360976554b4c",
    "stop-gd-target-mid-run-armijo": "5ac094b428dbf8e9585a098e91f5a77e41011885b5fa42d6c29957d842386a51",
    "stop-gd-target-mid-run-fixed": "1eb41024e67d029a494f45e5a24140fd505854c66e0e895297efe91374896e4a",
    "stop-ssd-budget-below-one-step-armijo": "9ca1b6f9fac575a6a0a5c0087612252aaaf2fa896c08195ab88ab198523d7352",
    "stop-ssd-budget-below-one-step-fixed": "9ca1b6f9fac575a6a0a5c0087612252aaaf2fa896c08195ab88ab198523d7352",
    "stop-ssd-budget-mid-step-armijo": "caecd6674edc82cf111f4ecd09f0d19da2ea88724930174d0af4b572ef52b686",
    "stop-ssd-budget-mid-step-fixed": "d91da4129f8c97e0265562539c58173d44590508bdcfe5d821e45410909e062e",
    "stop-ssd-line-search-failed-armijo": "2744a26cb6a62fc3d693b21b2d685b7b5396aca77e2193447fce0eb0f79863a7",
    "stop-ssd-max-iters-armijo": "eadb836999494a64f0d9e6d833fef617722318517664ccc180a57fb6a2a511a0",
    "stop-ssd-max-iters-fixed": "fe3e9b0c6c2cef5a4a773cb3027fa00eb288d7c14b7375526ad32ff9e77c94f8",
    "stop-ssd-target-at-start-armijo": "96d78f1968bc7f78252550042efef25d6d4e7b984bfc906d766e360976554b4c",
    "stop-ssd-target-at-start-fixed": "96d78f1968bc7f78252550042efef25d6d4e7b984bfc906d766e360976554b4c",
    "stop-ssd-target-mid-run-armijo": "06b6bed0496eb2d1cf4c205124ff39c54363fe6e6acef7496bcd253167bcb777",
    "stop-ssd-target-mid-run-fixed": "67c5fd9762a4084393d41f7c69853c71ceafd39e7cd8cff56982c8a7c663570f",
    "stop-vrssd-budget-below-one-step-armijo": "9ca1b6f9fac575a6a0a5c0087612252aaaf2fa896c08195ab88ab198523d7352",
    "stop-vrssd-budget-below-one-step-fixed": "9ca1b6f9fac575a6a0a5c0087612252aaaf2fa896c08195ab88ab198523d7352",
    "stop-vrssd-budget-mid-step-armijo": "7761400441204fd767864154db4cb0bd0a370195889af9f72ebfdf318e0e60ef",
    "stop-vrssd-budget-mid-step-fixed": "85d33342415eda6d423231def7dedcae0fd65cbcfb55c6e80017add7699a035d",
    "stop-vrssd-line-search-failed-armijo": "2744a26cb6a62fc3d693b21b2d685b7b5396aca77e2193447fce0eb0f79863a7",
    "stop-vrssd-max-iters-armijo": "ca629ed0f0768e129433f65bc96dc4c0d71490ba6440c12a19eaab3831bbafb2",
    "stop-vrssd-max-iters-fixed": "755e2474ff51b02ad67e3017843d141252124e34cc1a44e1052ddf991c04c7dc",
    "stop-vrssd-target-at-start-armijo": "96d78f1968bc7f78252550042efef25d6d4e7b984bfc906d766e360976554b4c",
    "stop-vrssd-target-at-start-fixed": "96d78f1968bc7f78252550042efef25d6d4e7b984bfc906d766e360976554b4c",
    "stop-vrssd-target-mid-run-armijo": "7d52301848592aa96ef740f336390255ce7e04dc80f1f7d75e16e0a17464911a",
    "stop-vrssd-target-mid-run-fixed": "3242fe7276d02355f22c817d575eaa391498de334234b61cec4ae22451f94147",
    "vrssd-one-approx-w0-armijo-centered": "b6c1e5433560fe3c4c0b303d4f7b70e38d98bf6fee36d697f6f1cc3b9de2c90d",
    "vrssd-one-approx-w0-fixed-forward": "4fff567da1aa726ea523fe7f77d97b146fa7b28223955eab26d95c790a96ed4f",
    "vrssd-one-approx-w0-theory-exact": "1c6be2f4a869130808b05f8385c909f8d046913c983e48c0278018ae19f56aa4",
    "vrssd-one-approx-w3-armijo-centered": "55ae629cb3066485666559b705dec10d4b8d21731cbed7b78d0e6812c16c2046",
    "vrssd-one-approx-w3-fixed-forward": "779e75748556e9e2eed99f5e0b1e4ecdf4f57bd1b6132e7eab74fe14bfd1a441",
    "vrssd-one-approx-w3-theory-exact": "542b6a71d7ae3916d631b657b910da8247f510b823fc760da6982b2ab811d756",
    "vrssd-one-exact-w0-armijo-centered": "a91729c6623c3e7a286f2037493548e7883316d50bc5d05fb1e7fa53725fca62",
    "vrssd-one-exact-w0-fixed-forward": "d401edcfa3efa23f9fe5a803f88929ecc73a2d0eb1194415411827763391251c",
    "vrssd-one-exact-w0-theory-exact": "4d94aa8f7c178714365b938adf6c44b9fd6c0116c7a6a9a170368845312368d4",
    "vrssd-one-exact-w3-armijo-centered": "0cc6aedc23407589ae3f954531245706f28b966291a0d25213304ebdfcfe9e36",
    "vrssd-one-exact-w3-fixed-forward": "b9dd55341433a2b01dfa41c5a23519b7ccede8c0ad638752c1c4373af1ed3c44",
    "vrssd-one-exact-w3-theory-exact": "e987bc55fbb7d1fdbab94134a45976c46074d200cba7fe8603b05e4ada0e2544",
    "vrssd-one-one-w0-armijo-centered": "e78931b78177a6add63041a61f33b91d44dc6b6092baad65cf541f177e4782b3",
    "vrssd-one-one-w0-fixed-forward": "2fc76b76b93159afab6eebbf9a98c87d5e81257ee39cb4d2b4229cf41862490a",
    "vrssd-one-one-w0-theory-exact": "289cd5591aa259592c58ef13c38d66d9074a100887c8a432da6892e5e41fd597",
    "vrssd-one-one-w3-armijo-centered": "f73451f2584dbbed29c38df94cbb33cb64b60f99dbaeb629334994668e301f84",
    "vrssd-one-one-w3-fixed-forward": "4141074fd106e8712e2c7912ef7ec42b2a18cf214e0d9f26d8d9ac049ba377bc",
    "vrssd-one-one-w3-theory-exact": "5b9ac2a616932ac9c4b594fd89f47b8e49fae452ded80459d6e82df20fe60fd3",
    "vrssd-one-zero-w0-armijo-centered": "60173d56c3b8e56883122d653effdd6e5fd49ceb397dc40bc8139546645d8b85",
    "vrssd-one-zero-w0-fixed-forward": "fc511ed9fb34366536392cd324eb586bda40126e961a788ba31d9c480b2788b9",
    "vrssd-one-zero-w0-theory-exact": "ccab57584eda951e8bef9424efecc1004d0f71da7d403151032e62c66259c61a",
    "vrssd-one-zero-w3-armijo-centered": "a9ab2b780aa57d4fb4df621e8959600aa3677ac173e6522602278a1b5cdf5679",
    "vrssd-one-zero-w3-fixed-forward": "cafa2e7ee86ac9498142f83c09f4cf6d8b21aeacb7895eef722b7f1b30e16085",
    "vrssd-one-zero-w3-theory-exact": "ccab57584eda951e8bef9424efecc1004d0f71da7d403151032e62c66259c61a",
    "vrssd-two-approx-w0-armijo-centered": "b6c1e5433560fe3c4c0b303d4f7b70e38d98bf6fee36d697f6f1cc3b9de2c90d",
    "vrssd-two-approx-w0-fixed-forward": "bf2b71c28b4cfeb06118e9662a328063dc4c4680fb3643876969efc80e459185",
    "vrssd-two-approx-w0-theory-exact": "c43663a46cb238204fd10fa3703c4092a81bd60558b60ea6fdb7b5a92475214a",
    "vrssd-two-approx-w3-armijo-centered": "6058e246de2b03468f9d7a21bba4abc378086cf5bb061a97be2ec52c3fb62d30",
    "vrssd-two-approx-w3-fixed-forward": "0bb0f8add3128a4a0bdff55b8d06794cd85e6c6a6cf4e49b33f57b95b92bd43d",
    "vrssd-two-approx-w3-theory-exact": "573de8d83af2912e0157db96f124604f98fd77b969a3fe282b1236679b9c5217",
    "vrssd-two-exact-w0-armijo-centered": "e2b1b0c08ee04a0929c02a90f399c5a96adccf0b093d4443ae9772006853576d",
    "vrssd-two-exact-w0-fixed-forward": "4f12fa95318bd95b31620c91582b9103b7d939ac91a1470e66d65a1dad869b07",
    "vrssd-two-exact-w0-theory-exact": "ea551cfa84d41f5685918cf7b7648c8a218a3a198d371fb0d56b1d2583371628",
    "vrssd-two-exact-w3-armijo-centered": "be21fd53d82e75ef9291a91d9b3613fc79b6406daf36401318911bd025232017",
    "vrssd-two-exact-w3-fixed-forward": "7072e17ae0b3267dcbcc384b2e90668dc404df8d7601b9af7ecc299d0a8f1835",
    "vrssd-two-exact-w3-theory-exact": "f5c3827feb81d04a9f125bb7d09a9f9ed92178d6bf44fbee24d8c1b219736c5a",
    "vrssd-two-one-w0-armijo-centered": "3ba13bda8002313ab1a8ae5a8bcfb7580ec0b27a3194eb3ed399d0542a0fd3be",
    "vrssd-two-one-w0-fixed-forward": "e14945f3d240c67efd383efea84f73dde674e705f18ba7047ab68eb751ae78d1",
    "vrssd-two-one-w0-theory-exact": "2b208cb59e6757ea7ee6033180a05b8257bace9488620538b7b971831e25e77a",
    "vrssd-two-one-w3-armijo-centered": "f73451f2584dbbed29c38df94cbb33cb64b60f99dbaeb629334994668e301f84",
    "vrssd-two-one-w3-fixed-forward": "87c1308eedb11a2647349acb68b124349fb521ae1d143321fc52b09fa69b546a",
    "vrssd-two-one-w3-theory-exact": "8e3adc72fe8f1bae5edda2a2b316ef59ef6ccc77b71c4565e14cd2bc4c9d664d",
    "vrssd-two-zero-w0-armijo-centered": "86b83c771dfeb8721c0194401a2c1137eb47dba6ba22fe8e3559e800171089b3",
    "vrssd-two-zero-w0-fixed-forward": "c1e6449fb154b5d2d041bd7abd6ed47a844278371a71867b6e435ef7b60ed706",
    "vrssd-two-zero-w0-theory-exact": "c2d805269f895a2ff31b937e0a7342bc8a6fe98fabfa5a525a490ac6a0f697cc",
    "vrssd-two-zero-w3-armijo-centered": "e26e6c70bca625531edbbf2811f07a82b9131743d5b54d532d3e7ecfc1ca32ec",
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
