package com.demo.web;

import org.springframework.web.bind.annotation.GetMapping;
import org.springframework.web.bind.annotation.RestController;

@RestController
public class ItemController implements Listing {

    // Item is the member type inherited from Catalog through Listing, which
    // shadows the class Item of this package
    @GetMapping(Listing.ITEMS)
    public Item first() {
        return new Item();
    }
}
