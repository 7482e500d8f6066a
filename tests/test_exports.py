"""The package namespace is the union of the five layers' __all__ lists."""

from __future__ import annotations

import importlib

import circle_cs

LAYERS = ("errors", "theta", "hilbert", "coherent", "bargmann")


def test_package_exports_each_layer_list_once():
    # import_module, because the package binds the name `theta` to the function
    layers = [importlib.import_module(f"circle_cs.{name}") for name in LAYERS]
    names = ["__version__"] + [name for layer in layers for name in layer.__all__]
    assert len(set(names)) == len(names)
    assert len(set(circle_cs.__all__)) == len(circle_cs.__all__)
    assert sorted(circle_cs.__all__) == sorted(names)
    for layer in layers:
        for name in layer.__all__:
            assert getattr(circle_cs, name) is getattr(layer, name), name
    assert circle_cs.theta is layers[1].theta
