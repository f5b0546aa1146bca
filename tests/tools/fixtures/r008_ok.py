# lint-as: src/repro/phy/wifi/receiver.py
"""R008-clean: timing flows through the metrics registry."""

from repro import obs


def decode_timed(samples):
    with obs.timed("phy.wifi.decode.seconds"):
        result = decode(samples)
    return result


def decode_spanned(samples):
    with obs.span("phy.wifi.decode", n=len(samples)):
        return decode(samples)


def decode(samples):
    return samples
