package com.shop.app;

import com.shop.api.Product;
import com.shop.api.ProductApi;
import java.util.List;
import org.springframework.web.bind.annotation.RestController;

@RestController
public class ProductController implements ProductApi {

    @Override
    public Product get(long id) {
        return new Product();
    }

    @Override
    public List<Product> search(String q) {
        return List.of();
    }
}
