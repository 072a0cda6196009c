"""Every kernel and filter spec message, pinned: the exact spec a text parses
to, or the exact text of the usage error it raises."""

import pytest

from setlearn import (Abel, Gaussian, KpcaTruncation, L1Exponential, Landweber, Linear,
                      Normalized, Product, SpectralCutoff, Tikhonov, UsageError,
                      parse_filter, parse_kernel)

_PRODUCT = "product factors=(abel sigma=1.0 @0:1)+(l1exp sigma=0.5 @1:2)"

# (text, the spec it parses to or the message it is refused with)
KERNEL_CASES = [
    ("", "empty kernel spec"),
    ("   ", "empty kernel spec"),
    ("kernel=", "empty kernel spec"),
    ("abel sigma=0.5", Abel(0.5)),
    ("kernel=abel sigma=0.5", Abel(0.5)),
    ("  abel   sigma=2  ", Abel(2.0)),
    ("abel", "kernel 'abel' needs sigma="),
    ("kernel=abel", "kernel 'abel' needs sigma="),
    ("abel sigma=", "bad sigma: ''"),
    ("abel sigma=abc", "bad sigma: 'abc'"),
    ("abel sigma=1 sigma=2", "repeated kernel option 'sigma'"),
    ("abel width=2", "unknown kernel option 'width'"),
    ("abel sigma", "expected key=value, got 'sigma'"),
    ("abel sigma=0", "kernel width must be positive and finite, got 0.0"),
    ("abel sigma=nan", "kernel width must be positive and finite, got nan"),
    ("l1exp sigma=2", L1Exponential(2.0)),
    ("gaussian sigma=1e-3", Gaussian(1e-3)),
    ("gaussian sigma=1e-200", "kernel width 1e-200 is so small that its scale underflows"),
    ("linear", Linear()),
    ("linear sigma=1", "kernel 'linear' takes no options"),
    ("bogus", "unknown kernel 'bogus'"),
    ("bogus sigma=1", "unknown kernel 'bogus'"),
    ("filter=tikhonov lambda=1", "unknown kernel 'filter=tikhonov'"),
    ("tikhonov lambda=1", "unknown kernel 'tikhonov'"),
    ("normalized inner=(linear)", Normalized(Linear())),
    ("normalized inner=(abel sigma=1)", Abel(1.0)),
    ("normalized", "kernel 'normalized' needs inner="),
    ("normalized inner=linear", "expected a parenthesized group, got 'linear'"),
    ("normalized inner=(linear", "unbalanced parentheses in 'normalized inner=(linear'"),
    ("normalized inner=(linear))", "unbalanced parentheses in 'normalized inner=(linear))'"),
    ("normalized inner=()", "empty kernel spec"),
    ("normalized inner=(bogus)", "unknown kernel 'bogus'"),
    ("normalized inner=(linear) inner=(linear)", "repeated kernel option 'inner'"),
    (_PRODUCT, Product(((Abel(1.0), (0, 1)), (L1Exponential(0.5), (1, 2))))),
    ("product factors=(abel sigma=1 @0:1)+(linear @1:2)",
     Product(((Abel(1.0), (0, 1)), (Linear(), (1, 2))))),
    ("product", "kernel 'product' needs factors="),
    ("product factors=abel", "expected a parenthesized group, got 'abel'"),
    ("product factors=(abel sigma=1)",
     "product factor needs one @start:stop slice: '(abel sigma=1)'"),
    ("product factors=(abel sigma=1 @0:1 @1:2)",
     "product factor needs one @start:stop slice: '(abel sigma=1 @0:1 @1:2)'"),
    ("product factors=(abel sigma=1 @0:x)", "bad slice '0:x'"),
    ("product factors=(abel sigma=1 @0:1:2)", "bad slice '0:1:2'"),
    ("product factors=(abel sigma=1 @2:1)", "bad coordinate slice 2:1"),
    ("product factors=(abel sigma=1 @1:2)",
     "factor slices must tile 0..d; gap or overlap at coordinate 0"),
    ("product factors=(abel sigma=1 @0:1)+(abel sigma=1 @0:1)",
     "factor slices must tile 0..d; gap or overlap at coordinate 1"),
    ("abel\tsigma=1", Abel(1.0)),
]

FILTER_CASES = [
    ("", "empty filter spec"),
    ("filter=", "empty filter spec"),
    ("tikhonov lambda=0.001", Tikhonov(1e-3)),
    ("filter=tikhonov lambda=0.001", Tikhonov(1e-3)),
    ("tikhonov\tlambda=0.5", Tikhonov(0.5)),
    ("tikhonov", "filter 'tikhonov' needs lambda="),
    ("tikhonov lambda=", "bad lambda: ''"),
    ("tikhonov lambda=abc", "bad lambda: 'abc'"),
    ("tikhonov lambda=0", "regularization parameter must be positive and finite, got 0.0"),
    ("tikhonov lambda=1 lambda=2", "repeated filter option 'lambda'"),
    ("tikhonov x", "expected key=value, got 'x'"),
    ("tikhonov foo=1", "unknown filter option 'foo'"),
    ("cutoff lambda=1e-06", SpectralCutoff(1e-6)),
    ("landweber m=50", Landweber(50)),
    ("landweber m=1.5", "bad m: '1.5'"),
    ("landweber m=-1", "iteration count must be a nonnegative integer, got -1"),
    ("landweber", "filter 'landweber' needs m="),
    ("kpca lambda=0.01", KpcaTruncation(lam=0.01)),
    ("kpca components=3", KpcaTruncation(components=3)),
    ("kpca", "filter 'kpca' needs lambda= or components="),
    ("filter=kpca", "filter 'kpca' needs lambda= or components="),
    ("kpca lambda=0.1 components=3", "filter 'kpca' takes only one of lambda= or components="),
    ("kpca lambda=0.1 m=3", "unknown filter option 'm'"),
    ("kpca components=0", "component count must be a positive integer, got 0"),
    ("kpca components=3 components=4", "repeated filter option 'components'"),
    ("bogus", "unknown filter 'bogus'"),
    ("bogus lambda=1", "unknown filter 'bogus'"),
    ("tikhonov lambda=(1)", "bad lambda: '(1)'"),
    # The family is looked up, and the options are checked against its own
    # keys, before anything else; a value splits at parenthesis depth zero.
    ("tikhonov m=5", "unknown filter option 'm'"),
    ("landweber lambda=1", "unknown filter option 'lambda'"),
    ("bogus x", "unknown filter 'bogus'"),
    ("abel sigma=1", "unknown filter 'abel'"),
    ("kernel=abel sigma=1", "unknown filter 'kernel=abel'"),
    ("tikhonov lambda=(1", "unbalanced parentheses in 'tikhonov lambda=(1'"),
]

_CASES = ([pytest.param(parse_kernel, text, want, id=f"kernel:{text}")
           for text, want in KERNEL_CASES] +
          [pytest.param(parse_filter, text, want, id=f"filter:{text}")
           for text, want in FILTER_CASES])


@pytest.mark.parametrize("parse, text, want", _CASES)
def test_spec_text_parses_or_is_refused_with_its_message(parse, text, want):
    if isinstance(want, str):
        with pytest.raises(UsageError) as err:
            parse(text)
        assert str(err.value) == want
    else:
        assert parse(text) == want
